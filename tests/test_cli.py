"""End-to-end command-line workflows on small synthetic datasets."""

import hashlib
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import mmexpr
from mmexpr import cli, data
from mmexpr.checkpoint import load_checkpoint, save_checkpoint
from mmexpr.cli import build_parser, main
from mmexpr.data import (
    FeatureTrack,
    Manifest,
    feature_specs,
    load_labels,
    load_manifest,
    load_video,
    read_feature_file,
    write_feature_file,
)
from mmexpr.ensemble import PredictionTrack, read_predictions, vote, write_predictions
from mmexpr.errors import DataFormatError
from mmexpr.evaluation import evaluate_tracks
from mmexpr.fileio import read_json, write_json
from mmexpr.training import ExperimentConfig

from tests import _reference as ref


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

    @pytest.mark.parametrize("option, value, name", [
        ("--classes", 9, "classes"), ("--classes", 0, "classes"), ("--frames", 0, "frames"),
        ("--videos", 0, "videos"), ("--visual-dim", 0, "visual_dim"),
        ("--audio-dim", 0, "audio_dim"), ("--sigma", "nan", "sigma"), ("--sigma", -1, "sigma"),
        ("--seed", -1, "seed"),
    ])
    def test_out_of_range_argument_exits_2_before_writing(self, tmp_path, capsys, option,
                                                          value, name):
        assert run_cli("synth", "--out", tmp_path / "s", option, value) == 2
        err = capsys.readouterr().err
        assert f"synth: {name} must be" in err and "Traceback" not in err
        assert not (tmp_path / "s").exists()

    def test_resolved_config_lists_every_argument(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path, "--videos", 2, "--frames", 16) == 0
        doc = read_json(str(tmp_path / "resolved_config.json"))
        assert doc == {"command": "synth", "videos": 2, "frames": 16, "classes": 8,
                       "visual_dim": 64, "audio_dim": 32, "sigma": 0.5, "seed": 0}


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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["videos"][0].update(features=[1]),
         "manifest.videos[0].features: expected an object, got [1]"),
        (lambda doc: doc.update(splits={"train": 5}),
         "manifest.splits.train: expected an array, got 5"),
        (lambda doc: doc.update(videos=5), "manifest.videos: expected an array, got 5"),
        (lambda doc: doc.update(splits=[1]), "manifest.splits: expected an object, got [1]"),
    ], ids=["features-array", "split-number", "videos-number", "splits-array"])
    def test_malformed_manifest_exits_2_naming_file_and_field(self, synth_dir, tmp_path, capsys,
                                                              edit, message):
        doc = read_json(str(synth_dir / "manifest.json"))
        edit(doc)
        path = tmp_path / "manifest.json"
        write_json(str(path), doc)
        assert run_cli("prepare", "--manifest", path, "--out", tmp_path / "p") == 2
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err and "Traceback" not in err

    @staticmethod
    def _prepare_writes_nothing(synth_dir, tmp_path, capsys, edit, key, registry=None):
        """``prepare`` on the synthetic manifest after ``edit`` exits 2 naming
        ``key`` and writes nothing under ``--out``."""
        doc = read_json(str(synth_dir / "manifest.json"))
        for video in doc["videos"]:
            video["label_file"] = str(synth_dir / video["label_file"])
            video["features"] = {k: str(synth_dir / p) for k, p in video["features"].items()}
        edit(doc["videos"][0])
        path = tmp_path / "in" / "manifest.json"
        write_json(str(path), doc)
        config = tmp_path / "in" / "config.json"
        cfg = small_config_doc()
        cfg["registry"].update(registry or {})
        write_json(str(config), cfg)
        out = tmp_path / "out" / "prep"
        assert run_cli("prepare", "--manifest", path, "--out", out, "--config", config) == 2
        err = capsys.readouterr().err
        assert f"{path}: {key}" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == [path.parent, config, path]

    @pytest.mark.parametrize("vid", ["../../escaped", "sub/v", "/abs", "..", ".", ""])
    def test_video_id_that_is_not_a_file_name_exits_2_writing_nothing(self, synth_dir, tmp_path,
                                                                     capsys, vid):
        self._prepare_writes_nothing(synth_dir, tmp_path, capsys,
                                     lambda video: video.update(id=vid), "manifest.videos[0].id")

    @pytest.mark.parametrize("name", ["x/../../../escaped", "sub/x", "/abs", "..", ".", ""])
    def test_feature_set_name_that_is_not_a_file_name_exits_2_writing_nothing(
            self, synth_dir, tmp_path, capsys, name):
        def rename(video):  # the renamed set is declared, so only its name is at fault
            video["features"][name] = video["features"].pop("synthvis")
        self._prepare_writes_nothing(synth_dir, tmp_path, capsys, rename,
                                     "manifest.videos[0].features",
                                     {name: {"dim": 8, "modality": "visual"}})

    def test_written_manifests_round_trip_through_the_codec(self, synth_dir, tmp_path):
        out = tmp_path / "prepared"
        assert run_cli("prepare", "--manifest", synth_dir / "manifest.json", "--out", out,
                       "--config", synth_dir / "small_config.json") == 0
        for path in (synth_dir / "manifest.json", out / "manifest.json"):
            doc = read_json(str(path))
            assert Manifest.from_json(doc, "manifest").to_json() == doc

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


UNDECODABLE = [
    pytest.param("v.synthvis.mmft", lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
                 "unsupported feature file version 2", id="feature-version-2"),
    pytest.param("v.synthvis.mmft", lambda raw: raw[:12] + b"\xff" + raw[13:],
                 "feature set name is not UTF-8", id="feature-name-not-utf8"),
    pytest.param("v.csv", lambda raw: raw.replace(b"2,1", b"2,\xff"),
                 "can't decode byte 0xff", id="label-not-utf8"),
]


class TestSharedChecks:
    """load_video and prepare reject each malformed input with one message."""

    @pytest.mark.parametrize("name, edit, message", UNDECODABLE)
    def test_undecodable_file_exits_2_naming_it(self, tmp_path, capsys, name, edit, message):
        manifest_path, config_path = write_one_video_dataset(tmp_path, lambda files: None)
        path = tmp_path / name
        path.write_bytes(edit(path.read_bytes()))
        assert run_cli("prepare", "--manifest", manifest_path, "--out", tmp_path / "out",
                       "--config", config_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert "truncated" not in err

    @pytest.mark.parametrize("mutate, message", MALFORMED)
    def test_load_video_and_prepare_agree(self, tmp_path, capsys, mutate, message):
        manifest_path, config_path = write_one_video_dataset(tmp_path, mutate)
        config = ExperimentConfig.from_json(read_json(str(config_path)))
        entry = load_manifest(str(manifest_path)).video("v")
        with pytest.raises(DataFormatError, match=message) as caught:
            load_video(entry, feature_specs(config.registry_extra), config.feature_names())
        assert run_cli("prepare", "--manifest", manifest_path, "--out", tmp_path / "out",
                       "--config", config_path) == 2
        assert capsys.readouterr().err == f"error: {caught.value}\n"

    def test_unmutated_dataset_loads_and_prepares(self, tmp_path):
        manifest_path, config_path = write_one_video_dataset(tmp_path, lambda files: None)
        config = ExperimentConfig.from_json(read_json(str(config_path)))
        entry = load_manifest(str(manifest_path)).video("v")
        video = load_video(entry, feature_specs(config.registry_extra), config.feature_names())
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

    def test_predict_records_the_resolved_model_and_features(self, synth_dir, trained_run,
                                                             tmp_path):
        trained = read_json(str(trained_run / "resolved_config.json"))
        partial = {"features": trained["features"], "registry": trained["registry"],
                   "model": {"encoder": "transformer", "d_model": 64, "head": [32, 16],
                             "segment": {"l": 16},
                             "transformer": {"layers": 1, "heads": 2, "ffn_dim": 128}}}
        write_json(str(tmp_path / "partial.json"), partial)
        for config, out in ((trained_run / "resolved_config.json", tmp_path / "full"),
                            (tmp_path / "partial.json", tmp_path / "partial")):
            assert run_cli("predict", "--checkpoint", trained_run / "best.ckpt",
                           "--config", config, "--manifest", synth_dir / "manifest.json",
                           "--split", "val", "--out", out) == 0
        full = read_json(str(tmp_path / "full" / "resolved_config.json"))
        assert full["model"] == trained["model"]
        assert full["features"] == trained["features"]
        recorded = read_json(str(tmp_path / "partial" / "resolved_config.json"))
        assert recorded["model"] == ExperimentConfig.from_json(partial).model.to_json()
        assert recorded["model"]["segment"] == {"l": 16, "p": 16}
        assert recorded["model"]["transformer"]["dropout"] == 0.3
        assert recorded["model"]["classes"] == 8 and recorded["model"]["head_dropout"] == 0.3
        assert recorded["features"] == {"visual": ["synthvis"], "audio": ["synthaud"]}

    def test_evaluate_perfect_predictions(self, synth_dir, tmp_path):
        manifest = load_manifest(str(synth_dir / "manifest.json"))
        preds = tmp_path / "oracle_preds"
        os.makedirs(preds, exist_ok=True)
        for entry in manifest.videos:
            labels = load_labels(entry.label_file, entry.n_frames, video_id=entry.video_id).labels
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
        labels = {e.video_id: load_labels(e.label_file, e.n_frames).labels for e in manifest.videos}
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
        assert run_cli("ensemble", "--spec", spec_path, "--out", fused_dir) == 0
        assert run_cli("evaluate", "--predictions", fused_dir,
                       "--manifest", synth_dir / "manifest.json",
                       "--out", fused_dir / "report.json") == 0
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

    @pytest.mark.parametrize("members, repeated", [
        (["preds/a", "./preds/a", "preds/b"], "./preds/a"),  # doubles one model's votes
        (["preds/a", "preds/b/../a/"], "preds/b/../a/"),  # two names, one model
        (["preds/b", "{root}/preds/b"], "{root}/preds/b"),
    ], ids=["dot-prefix", "parent-step", "absolute"])
    def test_member_listed_twice_exits_2_before_writing(self, synth_dir, tmp_path, capsys,
                                                        members, repeated):
        members = [m.format(root=tmp_path) for m in members]
        repeated = repeated.format(root=tmp_path)
        manifest = load_manifest(str(synth_dir / "manifest.json"))
        labels = {e.video_id: load_labels(e.label_file, e.n_frames).labels for e in manifest.videos}
        rng = np.random.default_rng(3)
        for name in ("a", "b"):
            self.make_member(labels, tmp_path / "preds" / name, slice(0, None, 5), rng)
        spec_path = tmp_path / "ensemble.json"
        write_json(str(spec_path), {"members": members})
        assert run_cli("ensemble", "--spec", spec_path, "--out", tmp_path / "fused") == 2
        assert f"ensemble spec lists member {repeated!r} twice" in capsys.readouterr().err
        assert not (tmp_path / "fused").exists()

    @pytest.mark.parametrize("out", ["preds/a", "preds/c/../a/", "link"],
                             ids=["same-path", "parent-step", "symlink"])
    def test_out_naming_a_member_exits_2_before_writing(self, synth_dir, tmp_path, capsys, out):
        manifest = load_manifest(str(synth_dir / "manifest.json"))
        labels = {e.video_id: load_labels(e.label_file, e.n_frames).labels for e in manifest.videos}
        rng = np.random.default_rng(4)
        for name in ("a", "b", "c"):
            self.make_member(labels, tmp_path / "preds" / name, slice(0, None, 5), rng)
        os.symlink(tmp_path / "preds" / "a", tmp_path / "link")
        before = {p.name: p.read_bytes() for p in (tmp_path / "preds" / "a").iterdir()}
        spec_path = tmp_path / "ensemble.json"
        write_json(str(spec_path), {"members": ["preds/a", "preds/b", "preds/c"]})
        out_dir = tmp_path / out
        assert run_cli("ensemble", "--spec", spec_path, "--out", out_dir) == 2
        assert f"--out {out_dir} is ensemble member 'preds/a'" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (tmp_path / "preds" / "a").iterdir()} == before

    @pytest.mark.parametrize("out, config", [
        ("run", None),  # the config beside the checkpoint, read by default
        ("cfg", "cfg"),  # the config given with --config
        ("run/./", "cfg"),  # the checkpoint's run config, another spelling
        ("link", None),
    ], ids=["default-config", "given-config", "run-config", "symlink"])
    def test_predict_out_holding_a_run_config_exits_2_before_writing(
            self, synth_dir, trained_run, tmp_path, capsys, out, config):
        for d in ("run", "cfg"):
            os.makedirs(tmp_path / d)
            (tmp_path / d / "resolved_config.json").write_bytes(
                (trained_run / "resolved_config.json").read_bytes())
        (tmp_path / "run" / "best.ckpt").write_bytes((trained_run / "best.ckpt").read_bytes())
        os.symlink(tmp_path / "run", tmp_path / "link")
        before = {d: sorted(p.name for p in (tmp_path / d).iterdir()) for d in ("run", "cfg")}
        argv = ["predict", "--checkpoint", tmp_path / "run" / "best.ckpt",
                "--manifest", synth_dir / "manifest.json", "--split", "val"]
        if config:
            argv += ["--config", tmp_path / config / "resolved_config.json"]
        assert run_cli(*argv, "--out", tmp_path / out) == 2
        assert f"--out {tmp_path / out} would replace the run config" in capsys.readouterr().err
        assert {d: sorted(p.name for p in (tmp_path / d).iterdir())
                for d in ("run", "cfg")} == before
        for d in ("run", "cfg"):
            assert ((tmp_path / d / "resolved_config.json").read_bytes()
                    == (trained_run / "resolved_config.json").read_bytes())
        assert run_cli(*argv, "--out", tmp_path / "preds") == 0

    @pytest.mark.parametrize("videos, message", [
        ((["vid000", "vid001"], ["vid000"]), "holds videos ['vid000'], expected"),
        (([], []), "member directories contain no prediction files"),
    ], ids=["different-videos", "no-files"])
    def test_members_without_the_same_prediction_files_exit_2_before_writing(
            self, synth_dir, tmp_path, capsys, videos, message):
        manifest = load_manifest(str(synth_dir / "manifest.json"))
        labels = {e.video_id: load_labels(e.label_file, e.n_frames).labels for e in manifest.videos}
        rng = np.random.default_rng(5)
        for name, ids in zip(("a", "b"), videos):
            os.makedirs(tmp_path / name)
            self.make_member({vid: labels[vid] for vid in ids}, tmp_path / name,
                             slice(0, None, 5), rng)
        spec_path = tmp_path / "ensemble.json"
        write_json(str(spec_path), {"members": ["a", "b"]})
        assert run_cli("ensemble", "--spec", spec_path, "--out", tmp_path / "fused") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fused").exists()

    @pytest.mark.parametrize("spec, message", [
        ([1], "spec: expected an object, got [1]"),
        ({"members": [1, 2]}, "spec.members[0]: expected a string, got 1"),
    ], ids=["array", "member-number"])
    def test_malformed_spec_exits_2_naming_the_key(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "spec.json"
        write_json(str(spec_path), spec)
        assert run_cli("ensemble", "--spec", spec_path, "--out", tmp_path / "f") == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_each_command_takes_its_documented_options():
    commands = build_parser()._subparsers._group_actions[0].choices
    options = {name: {opt for action in p._actions for opt in action.option_strings}
               - {"-h", "--help"} for name, p in commands.items()}
    assert options == {
        "prepare": {"--manifest", "--out", "--config"},
        "synth": {"--out", "--videos", "--frames", "--classes", "--visual-dim",
                  "--audio-dim", "--sigma", "--seed"},
        "train": {"--config", "--manifest", "--out", "--seed", "--encoder"},
        "predict": {"--checkpoint", "--manifest", "--split", "--out", "--config"},
        "evaluate": {"--predictions", "--manifest", "--split", "--out"},
        "ensemble": {"--spec", "--out"},
    }


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
                labels = load_labels(entry.label_file, entry.n_frames).labels
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

    def test_undecodable_prediction_file_exits_2_naming_it(self, synth_dir, tmp_path, capsys):
        entry = load_manifest(str(synth_dir / "manifest.json")).videos[0]
        labels = load_labels(entry.label_file, entry.n_frames).labels
        path = tmp_path / f"{entry.video_id}.csv"
        write_predictions(PredictionTrack(entry.video_id, labels, np.full((len(labels), 8), 1 / 8)),
                          str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-2] + b"\xff\n")
        assert run_cli("evaluate", "--predictions", tmp_path,
                       "--manifest", synth_dir / "manifest.json",
                       "--out", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err

    @pytest.mark.parametrize("raw, message", [(b'{"seed": ', "Expecting value"),
                                              (b'{"seed": "\xff"}', "can't decode byte 0xff")],
                             ids=["truncated", "not-utf8"])
    def test_unparsable_json_config_exits_2_naming_it(self, tmp_path, capsys, raw, message):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        assert run_cli("train", "--config", path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

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


    def test_non_finite_validation_is_3_naming_epoch_and_video(self, tmp_path, capsys):
        # one step at lr 1e30 leaves finite weights near 1e30; validation's
        # first affine then overflows
        assert run_cli("synth", "--out", tmp_path, "--videos", 4, "--frames", 60) == 0
        doc = read_json(str(tmp_path / "config.json"))
        doc["model"].update(encoder="lstm", d_model=32, lstm={"hidden": 16, "layers": 1},
                            segment={"l": 16, "p": 16})
        doc["training"].update(lr=1e30, batch_videos=4)
        write_json(str(tmp_path / "lstm.json"), doc)
        capsys.readouterr()
        assert run_cli("train", "--config", tmp_path / "lstm.json") == 3
        assert capsys.readouterr().err.startswith(
            "numeric failure: non-finite value at epoch 1 validation video vid000: affine: ")

    def test_forward_overflow_in_predict_is_3_naming_the_video(self, synth_dir, trained_run,
                                                               tmp_path, capsys):
        arrays = load_checkpoint(str(trained_run / "best.ckpt"))
        arrays["fusion.weight"][:] = 1e30  # finite, but the attention scores overflow
        save_checkpoint(arrays, str(tmp_path / "big.ckpt"))
        assert run_cli("predict", "--checkpoint", tmp_path / "big.ckpt",
                       "--config", trained_run / "resolved_config.json",
                       "--manifest", synth_dir / "manifest.json",
                       "--split", "val", "--out", tmp_path / "preds") == 3
        vid = load_manifest(str(synth_dir / "manifest.json")).split_ids("val")[0]
        assert capsys.readouterr().err.startswith(
            f"numeric failure: non-finite value at video {vid}: ")


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
    pytest.param(_set("seed", -5), "seed must be >= 0, got -5", id="seed-negative"),
    pytest.param(_set("features.visual", ["synthvis", "synthvis"]),
                 "features.visual lists 'synthvis' twice", id="visual-set-twice"),
]


class TestVideoWorkers:
    """``ensemble`` and ``evaluate`` spread their videos over one worker process
    per usable CPU. The usable CPUs are patched, so the pool also runs on a
    one-core machine."""

    CPUS = {"one-cpu": {0}, "three-cpus": {0, 1, 2}}

    @staticmethod
    def use_cpus(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

    @staticmethod
    def make_members(synth_dir, root):
        """The ensemble spec of three members with independent random predictions
        for every synth video, so votes split and ties need the tie-break."""
        ids = [e.video_id for e in load_manifest(str(synth_dir / "manifest.json")).videos]
        dirs = [root / f"m{k}" for k in range(3)]
        rng = np.random.default_rng(4)
        for d in dirs:
            os.makedirs(d)
            for vid in ids:
                probs = rng.dirichlet(np.ones(8), 64)
                write_predictions(PredictionTrack.from_probs(vid, probs), str(d / f"{vid}.csv"))
        spec = root / "ensemble.json"
        write_json(str(spec), {"members": [str(d) for d in dirs]})
        return spec, dirs, ids

    def test_same_bytes_on_any_cpu_count_as_the_per_video_loop(self, synth_dir, tmp_path,
                                                                monkeypatch):
        spec, dirs, ids = self.make_members(synth_dir, tmp_path)
        manifest = synth_dir / "manifest.json"
        written = {}
        for name, cpus in self.CPUS.items():
            self.use_cpus(monkeypatch, cpus)
            out = tmp_path / name
            assert run_cli("ensemble", "--spec", spec, "--out", out) == 0
            assert run_cli("evaluate", "--predictions", out, "--manifest", manifest,
                           "--out", out / "report.json") == 0
            assert run_cli("evaluate", "--predictions", out, "--manifest", manifest,
                           "--split", "val", "--out", out / "val.json") == 0
            assert multiprocessing.active_children() == []
            written[name] = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
        # the loop both commands ran in one process before they had workers
        expected = tmp_path / "expected"
        for vid in ids:
            tracks = [read_predictions(str(d / f"{vid}.csv"), video_id=vid) for d in dirs]
            write_predictions(vote(tracks), str(expected / f"{vid}.csv"))
        write_json(str(expected / "resolved_config.json"), {
            "command": "ensemble", "members": [str(d) for d in dirs],
            "strategy": "majority_vote", "tie_break": "mean_probability"})
        entries = load_manifest(str(manifest)).videos
        truth = {e.video_id: load_labels(e.label_file, e.n_frames).labels for e in entries}
        fused = {vid: read_predictions(str(expected / f"{vid}.csv")).labels for vid in ids}
        write_json(str(expected / "report.json"), evaluate_tracks(truth, fused).to_json())
        val = load_manifest(str(manifest)).split_ids("val")
        write_json(str(expected / "val.json"), evaluate_tracks(
            {vid: truth[vid] for vid in val}, {vid: fused[vid] for vid in val}).to_json())
        assert len(written["one-cpu"]) == len(ids) + 3
        assert written["one-cpu"] == written["three-cpus"]
        assert written["one-cpu"] == {f: (expected / f).read_bytes()
                                      for f in sorted(os.listdir(expected))}

    @pytest.mark.parametrize("cpus", ["one-cpu", "three-cpus"])
    def test_evaluate_on_an_empty_split_writes_a_0_frame_report(self, synth_dir, tmp_path,
                                                                 monkeypatch, cpus):
        doc = read_json(str(synth_dir / "manifest.json"))
        doc["splits"]["test"] = []
        write_json(str(tmp_path / "manifest.json"), doc)
        self.use_cpus(monkeypatch, self.CPUS[cpus])
        assert run_cli("evaluate", "--predictions", tmp_path, "--manifest",
                       tmp_path / "manifest.json", "--split", "test",
                       "--out", tmp_path / "r.json") == 0
        write_json(str(tmp_path / "expected.json"), evaluate_tracks({}, {}).to_json())
        assert (tmp_path / "r.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["ensemble", "evaluate"])
    def test_the_first_faulty_video_is_reported_on_any_cpu_count(self, synth_dir, tmp_path,
                                                                 monkeypatch, capsys, command):
        spec, dirs, ids = self.make_members(synth_dir, tmp_path)
        faulty = []
        for vid, row in ((ids[2], "1,0,nan,0,0,0,0,0,0,0"), (ids[5], "1,0,-1,1,1,0,0,0,0,0")):
            path = dirs[1] / f"{vid}.csv"
            lines = path.read_text().splitlines()
            lines[1] = row
            path.write_text("\n".join(lines) + "\n")
            faulty.append(path)

        def earlier_fault_later(path, video_id=None):  # so the later fault is raised first
            if path == str(faulty[0]):
                time.sleep(0.3)
            return read_predictions(path, video_id)

        monkeypatch.setattr(cli, "read_predictions", earlier_fault_later)
        capsys.readouterr()
        for name, cpus in self.CPUS.items():
            self.use_cpus(monkeypatch, cpus)
            out = tmp_path / name
            if command == "ensemble":
                code = run_cli("ensemble", "--spec", spec, "--out", out)
            else:
                code = run_cli("evaluate", "--predictions", dirs[1],
                               "--manifest", synth_dir / "manifest.json", "--out", out / "r.json")
            assert code == 2
            assert capsys.readouterr().err == f"error: {faulty[0]}: non-finite probability\n"
            left = os.listdir(out) if out.exists() else []
            assert "resolved_config.json" not in left and "r.json" not in left
            assert not [f for f in left if f.startswith(".tmp-")]  # no write was cut off
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command, name, error", [
        ("ensemble", "vote", ValueError), ("evaluate", "load_labels", ValueError),
        ("evaluate", "evaluate_tracks", KeyError)])
    @pytest.mark.parametrize("cpus", ["one-cpu", "three-cpus"])
    def test_a_stray_error_is_raised_not_read_as_a_data_error(self, synth_dir, tmp_path,
                                                              monkeypatch, command, name, error,
                                                              cpus):
        spec, dirs, _ = self.make_members(synth_dir, tmp_path)
        self.use_cpus(monkeypatch, self.CPUS[cpus])

        def stray(*args, **kwargs):
            raise error("stray")

        monkeypatch.setattr(cli, name, stray)  # forked workers inherit the patch
        argv = (["ensemble", "--spec", spec, "--out", tmp_path / "out"] if command == "ensemble"
                else ["evaluate", "--predictions", dirs[0],
                      "--manifest", synth_dir / "manifest.json", "--out", tmp_path / "r.json"])
        with pytest.raises(error, match="stray") as caught:
            run_cli(*argv)
        assert type(caught.value) is error
        assert not (tmp_path / "out" / "resolved_config.json").exists()
        assert not (tmp_path / "r.json").exists()
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_raises_instead_of_hanging(self, synth_dir, tmp_path, monkeypatch):
        spec, _, _ = self.make_members(synth_dir, tmp_path)
        self.use_cpus(monkeypatch, self.CPUS["three-cpus"])
        parent = os.getpid()  # a worker exits as if killed for memory; this process never does
        monkeypatch.setattr(cli, "vote", lambda tracks: os.getpid() == parent or os._exit(9))
        with pytest.raises(BrokenProcessPool):
            run_cli("ensemble", "--spec", spec, "--out", tmp_path / "out")
        assert not (tmp_path / "out" / "resolved_config.json").exists()
        assert multiprocessing.active_children() == []

    def test_a_stray_error_exits_1_with_its_traceback(self, synth_dir, tmp_path):
        spec, _, _ = self.make_members(synth_dir, tmp_path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(mmexpr.__file__)))
        script = ("import sys\nfrom mmexpr import cli\n"
                  "def stray(tracks):\n    raise ValueError('stray')\n"
                  "cli.vote = stray\nsys.exit(cli.main(sys.argv[1:]))\n")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script, "ensemble", "--spec", str(spec),
                                 "--out", str(tmp_path / "out")],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert "Traceback" in result.stderr
        assert result.stderr.rstrip().endswith("ValueError: stray")


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

    def test_negative_seed_option_exits_2_before_writing(self, synth_dir, tmp_path, capsys):
        doc = small_config_doc(manifest=str(synth_dir / "manifest.json"),
                               out=str(tmp_path / "run"), epochs=1)
        write_json(str(tmp_path / "config.json"), doc)
        assert run_cli("train", "--config", tmp_path / "config.json", "--seed", -1) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run" / "resolved_config.json").exists()

    def test_encoder_option_is_validated_before_writing(self, synth_dir, tmp_path, capsys):
        doc = small_config_doc(manifest=str(synth_dir / "manifest.json"),
                               out=str(tmp_path / "run"), epochs=1)
        doc["model"]["segment"] = {"l": 16, "p": 8}  # overlapping windows: transformer only
        write_json(str(tmp_path / "config.json"), doc)
        assert run_cli("train", "--config", tmp_path / "config.json", "--encoder", "lstm") == 2
        assert "stride == segment length" in capsys.readouterr().err
        assert not (tmp_path / "run" / "resolved_config.json").exists()

    @pytest.mark.parametrize("entry", [5, {"modality": "visual"},
                                       {"dim": 0, "modality": "visual"},
                                       {"dim": True, "modality": "visual"},
                                       {"dim": 3, "modality": "video"}],
                             ids=["not-object", "no-dim", "dim-0", "dim-bool", "modality-video"])
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
        assert "error: registry.synthvis" in capsys.readouterr().err

    def test_set_under_the_other_modality_is_rejected_before_any_feature_file_is_read(
            self, synth_dir, tmp_path, capsys, monkeypatch):
        doc = small_config_doc(manifest=str(synth_dir / "manifest.json"),
                               out=str(tmp_path / "run"), epochs=1)
        doc["features"]["visual"].append("egemaps")
        with pytest.raises(DataFormatError, match="feature set 'egemaps' is not visual"):
            ExperimentConfig.from_json(doc)
        write_json(str(tmp_path / "bad.json"), doc)
        read = []
        monkeypatch.setattr(data, "read_feature_file",
                            lambda path, *args, **kwargs: read.append(path))
        assert run_cli("train", "--config", tmp_path / "bad.json") == 2
        assert "feature set 'egemaps' is not visual" in capsys.readouterr().err
        assert read == [] and not (tmp_path / "run").exists()

    def _predict(self, synth_dir, trained_run, tmp_path, arrays):
        save_checkpoint(arrays, str(tmp_path / "edited.ckpt"))
        return run_cli("predict", "--checkpoint", tmp_path / "edited.ckpt",
                       "--config", trained_run / "resolved_config.json",
                       "--manifest", synth_dir / "manifest.json",
                       "--split", "val", "--out", tmp_path / "preds")

    @pytest.mark.parametrize("edit, message", [
        (lambda entry: (entry + entry, 2), "parameter 'fusion.bias' appears twice"),
        # the (64,) shape becomes (0, 2**32-1, 2**32-1): no floats, too big for numpy
        (lambda entry: (entry[:4 + len("fusion.bias")]
                        + struct.pack("<4I", 3, 0, 2**32 - 1, 2**32 - 1), 1),
         "parameter 'fusion.bias' has an invalid shape"),
    ], ids=["repeated-name", "huge-shape"])
    def test_predict_rejects_malformed_checkpoint_naming_it(self, synth_dir, trained_run,
                                                            tmp_path, capsys, edit, message):
        arrays = load_checkpoint(str(trained_run / "best.ckpt"))
        bias = ref.checkpoint_bytes({"fusion.bias": arrays.pop("fusion.bias")})
        entries, added = edit(bias[12:])
        raw = ref.checkpoint_bytes(arrays)
        path = tmp_path / "edited.ckpt"
        path.write_bytes(raw[:8] + struct.pack("<I", len(arrays) + added) + entries + raw[12:])
        assert run_cli("predict", "--checkpoint", path,
                       "--config", trained_run / "resolved_config.json",
                       "--manifest", synth_dir / "manifest.json",
                       "--split", "val", "--out", tmp_path / "preds") == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not (tmp_path / "preds").exists()

    def test_predict_rejects_fusion_weight_of_other_feature_dims(self, synth_dir, trained_run,
                                                                 tmp_path, capsys):
        arrays = load_checkpoint(str(trained_run / "best.ckpt"))
        arrays["fusion.weight"] = np.zeros((13, 64), np.float32)  # the config's sets give 12
        assert self._predict(synth_dir, trained_run, tmp_path, arrays) == 2
        assert "input dim 12 != layer dim 13" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["model"].update(encoder="lstm"),
         "checkpoint mismatch: missing ['lstm0.bias', 'lstm0.input_weight', "
         "'lstm0.state_weight'], unexpected ['trm0.attn.key_bias'"),
        (lambda doc: doc["model"]["transformer"].update(ffn_dim=96),
         "parameter 'trm0.ffn.in_weight': checkpoint shape (64, 128) != model shape (64, 96)"),
    ], ids=["other-encoder", "other-ffn-dim"])
    def test_predict_with_another_architectures_config_names_the_parameter(
            self, synth_dir, trained_run, tmp_path, capsys, edit, message):
        doc = read_json(str(trained_run / "resolved_config.json"))
        edit(doc)
        write_json(str(tmp_path / "config.json"), doc)
        assert run_cli("predict", "--checkpoint", trained_run / "best.ckpt",
                       "--config", tmp_path / "config.json",
                       "--manifest", synth_dir / "manifest.json",
                       "--split", "val", "--out", tmp_path / "preds") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "preds").exists()

    def test_predict_on_an_empty_split_exits_2_before_writing(self, synth_dir, trained_run,
                                                              tmp_path, capsys):
        doc = read_json(str(synth_dir / "manifest.json"))
        doc["splits"]["test"] = []
        write_json(str(tmp_path / "manifest.json"), doc)
        assert run_cli("predict", "--checkpoint", trained_run / "best.ckpt",
                       "--manifest", tmp_path / "manifest.json",
                       "--split", "test", "--out", tmp_path / "preds") == 2
        assert "split 'test' is empty" in capsys.readouterr().err
        assert not (tmp_path / "preds").exists()

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


class TestBlasThreads:
    @pytest.mark.parametrize("encoder", ["transformer", "lstm"])
    def test_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path, encoder):
        """Train and predict in fresh interpreters at 1, 2 and 4 BLAS threads.
        At d_model 256 and l = 128 each transformer projection is 8.4M
        multiply-adds, which OpenBLAS splits across its threads."""
        assert run_cli("synth", "--out", tmp_path, "--videos", 2, "--frames", 256,
                       "--visual-dim", 8, "--audio-dim", 4, "--seed", 0) == 0
        doc = small_config_doc(encoder=encoder, epochs=2)
        doc["model"].update(d_model=256, segment={"l": 128, "p": 128}, lstm={"hidden": 256, "layers": 1})
        doc["model"]["transformer"].update(heads=4, ffn_dim=512)
        write_json(str(tmp_path / "config.json"), doc)
        src = os.path.dirname(os.path.dirname(os.path.abspath(mmexpr.__file__)))
        digests = {}
        script = "import sys; from mmexpr.cli import main; sys.exit(main(sys.argv[1:6]) or main(sys.argv[6:]))"
        for threads in ("1", "2", "4"):
            run, preds = tmp_path / f"run{threads}", tmp_path / f"preds{threads}"
            argv = ["train", "--config", tmp_path / "config.json", "--out", run,
                    "predict", "--checkpoint", run / "best.ckpt", "--manifest", tmp_path / "manifest.json",
                    "--split", "val", "--out", preds]
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            result = subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            log = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
            for record in log:
                del record["wall_ms"]
            files = [(run / "best.ckpt").read_bytes(), json.dumps(log).encode()]
            files += [path.read_bytes() for path in sorted(preds.glob("*.csv"))]
            digests[threads] = [hashlib.sha256(f).hexdigest() for f in files]
        assert len(digests["1"]) == 4  # checkpoint, log and two prediction files
        assert digests["2"] == digests["1"]
        assert digests["4"] == digests["1"]
