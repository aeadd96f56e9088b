"""Command-line entry point: prepare, synth, train, predict, evaluate, ensemble.

Exit codes: 0 success, 1 usage error, 2 data validation error, 3 numeric
failure. Every command writes a resolved-config copy into its output
directory, and all file outputs are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint
from .data import (
    FeatureRegistry,
    impute_missing,
    imputation_plan,
    load_feature_track,
    load_labels,
    load_manifest,
    load_video,
    write_feature_file,
)
from .ensemble import read_predictions, vote, write_predictions
from .errors import DataFormatError, NumericError, ShapeError
from .evaluation import evaluate_tracks
from .fileio import atomic_write_bytes, read_json, write_json
from .models import ExpressionModel
from .training import ExperimentConfig, predict_video, synth_dataset, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve(base_file: str, path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(base_file)), path)


# -- commands ---------------------------------------------------------------------


def cmd_prepare(args) -> int:
    manifest = load_manifest(args.manifest)
    extra = {}
    if args.config:
        extra = ExperimentConfig.read_field(read_json(args.config), "registry_extra")
    registry = FeatureRegistry(extra=extra)

    out = args.out
    labels_dir = os.path.join(out, "labels")
    features_dir = os.path.join(out, "features")
    entries = []
    report = {}
    total_imputed = 0
    for video in manifest.videos:
        load_labels(video.label_file, video_id=video.video_id, n_frames=video.n_frames)
        with open(video.label_file, "rb") as fh:
            atomic_write_bytes(os.path.join(labels_dir, f"{video.video_id}.csv"), fh.read())
        repairs = {}
        feature_paths = {}
        for name in sorted(video.features):
            feat = load_feature_track(video, name, registry)
            plan = imputation_plan(feat.present)
            repaired = impute_missing(feat)
            # the written file persists the repair; the report keeps the audit
            repaired.present = np.ones(repaired.n_frames, dtype=bool)
            rel = os.path.join("features", f"{video.video_id}.{name}.mmft")
            write_feature_file(repaired, os.path.join(out, rel))
            feature_paths[name] = rel
            if plan:
                repairs[name] = [{"frame": f, "donor": d} for f, d in plan]
                total_imputed += len(plan)
        report[video.video_id] = {
            "frames_imputed": sum(len(v) for v in repairs.values()),
            "repairs": repairs,
        }
        entries.append({
            "id": video.video_id,
            "n_frames": video.n_frames,
            "label_file": os.path.join("labels", f"{video.video_id}.csv"),
            "features": feature_paths,
        })

    write_json(os.path.join(out, "manifest.json"),
               {"videos": entries, "splits": manifest.splits})
    write_json(os.path.join(out, "prepare_report.json"),
               {"videos": report, "total_frames_imputed": total_imputed})
    write_json(os.path.join(out, "resolved_config.json"),
               {"command": "prepare", "manifest": os.path.abspath(args.manifest),
                "registry_extra": extra})
    print(f"{total_imputed} frames imputed")
    print(f"prepared dataset written to {out}")
    return 0


def cmd_synth(args) -> int:
    manifest_path = synth_dataset(
        args.out, videos=args.videos, frames=args.frames, classes=args.classes,
        visual_dim=args.visual_dim, audio_dim=args.audio_dim, sigma=args.sigma,
        seed=args.seed)
    write_json(os.path.join(args.out, "resolved_config.json"), {
        "command": "synth", "videos": args.videos, "frames": args.frames,
        "classes": args.classes, "visual_dim": args.visual_dim,
        "audio_dim": args.audio_dim, "sigma": args.sigma, "seed": args.seed,
    })
    print(f"synthetic dataset at {manifest_path}")
    return 0


def cmd_train(args) -> int:
    config = ExperimentConfig.from_json(read_json(args.config))
    config.manifest = args.manifest or _resolve(args.config, config.manifest)
    config.output_dir = args.out or _resolve(args.config, config.output_dir)
    if args.seed is not None:
        config.seed = args.seed
    if args.encoder:
        config.model.encoder = args.encoder
        config.model.validate()

    def show(record):
        print(f"epoch {record['epoch']:3d}: loss={record['train_loss']:.5f} "
              f"val_macro_f1={record['val_macro_f1']:.5f} ({record['wall_ms']} ms)")

    result = train(config, log_fn=show)
    print(f"best val macro-F1 {result.best_val_f1:.5f}; checkpoint {result.best_checkpoint}")
    return 0


def cmd_predict(args) -> int:
    config_path = args.config or os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)), "resolved_config.json")
    doc = read_json(config_path)
    config = ExperimentConfig.from_json(doc)
    manifest = load_manifest(args.manifest)
    ids = manifest.split_ids(args.split)
    if not ids:
        raise DataFormatError(f"split {args.split!r} is empty")
    model = ExpressionModel.from_state(config.model, load_checkpoint(args.checkpoint))
    registry = config.registry()
    for vid in ids:
        video = load_video(manifest.video(vid), registry,
                           config.visual_features, config.audio_features)
        track = predict_video(model, video)
        write_predictions(track, os.path.join(args.out, f"{vid}.csv"))
    write_json(os.path.join(args.out, "resolved_config.json"), {
        "command": "predict", "checkpoint": os.path.abspath(args.checkpoint),
        "manifest": os.path.abspath(args.manifest), "split": args.split,
        "overlap_merge": "mean_logits",
        "model": doc.get("model", {}),
        "features": doc.get("features", {}),
    })
    print(f"wrote {len(ids)} prediction files to {args.out}")
    return 0


def _score(manifest_path: str, split, pred_dir: str, out_path: str):
    """Score the prediction files in ``pred_dir`` against the manifest's labels.

    Scores the split when one is given, else every manifest video with a
    prediction file in ``pred_dir``; writes the report to ``out_path``.
    """
    manifest = load_manifest(manifest_path)
    if split:
        ids = manifest.split_ids(split)
    else:
        ids = [v.video_id for v in manifest.videos
               if os.path.exists(os.path.join(pred_dir, f"{v.video_id}.csv"))]
        if not ids:
            raise DataFormatError(f"no prediction files found in {pred_dir}")
    labels, predictions = {}, {}
    for vid in ids:
        entry = manifest.video(vid)
        labels[vid] = load_labels(entry.label_file, video_id=vid, n_frames=entry.n_frames).labels
        path = os.path.join(pred_dir, f"{vid}.csv")
        predictions[vid] = read_predictions(path, video_id=vid).labels
    report, cm = evaluate_tracks(labels, predictions)
    write_json(out_path, report.to_json(cm))
    return report, cm


def cmd_evaluate(args) -> int:
    report, cm = _score(args.manifest, args.split, args.predictions, args.out)
    print(f"macro_f1 {report.macro_f1:.5f} over {cm.total} frames; report at {args.out}")
    return 0


def cmd_ensemble(args) -> int:
    spec = read_json(args.spec)
    members = spec.get("members", [])
    if len(members) < 2:
        raise DataFormatError("ensemble spec needs at least 2 member directories")
    strategy = spec.get("strategy", "majority_vote")
    tie_break = spec.get("tie_break", "mean_probability")
    if strategy != "majority_vote" or tie_break != "mean_probability":
        raise DataFormatError(
            f"unsupported ensemble settings: strategy={strategy!r}, tie_break={tie_break!r}")
    member_dirs = [_resolve(args.spec, m) for m in members]

    def csv_ids(d):
        return sorted(os.path.splitext(f)[0] for f in os.listdir(d) if f.endswith(".csv"))

    ids = csv_ids(member_dirs[0])
    for d in member_dirs[1:]:
        if csv_ids(d) != ids:
            raise DataFormatError(
                f"member {d} holds videos {csv_ids(d)}, expected {ids}")
    if not ids:
        raise DataFormatError("member directories contain no prediction files")

    for vid in ids:
        tracks = [read_predictions(os.path.join(d, f"{vid}.csv"), video_id=vid)
                  for d in member_dirs]
        write_predictions(vote(tracks), os.path.join(args.out, f"{vid}.csv"))
    write_json(os.path.join(args.out, "resolved_config.json"), {
        "command": "ensemble", "members": [os.path.abspath(d) for d in member_dirs],
        "strategy": strategy, "tie_break": tie_break,
    })
    print(f"fused {len(ids)} videos from {len(member_dirs)} members into {args.out}")

    if args.manifest:
        report_path = os.path.join(args.out, "report.json")
        report, _ = _score(args.manifest, args.split, args.out, report_path)
        print(f"ensemble macro_f1 {report.macro_f1:.5f}; report at {report_path}")
    return 0


# -- argument wiring ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="mmexpr",
                     description="Multimodal temporal expression classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="validate a dataset and repair missing frames")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="experiment config supplying extra registry entries")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--videos", type=int, default=20)
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--visual-dim", type=int, default=64)
    p.add_argument("--audio-dim", type=int, default=32)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model from an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--encoder", choices=["lstm", "transformer"])
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="write per-video prediction files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="defaults to resolved_config.json beside the checkpoint")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="score prediction files against labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ensemble", help="fuse prediction directories by vote")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="evaluate the fused predictions against labels")
    p.add_argument("--split")
    p.set_defaults(fn=cmd_ensemble)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, ShapeError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
