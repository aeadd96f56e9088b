"""Command-line entry point: prepare, synth, train, predict, evaluate, ensemble.

Exit codes: 0 success, 1 usage error, 2 data validation error, 3 numeric
failure. Every command but ``evaluate``, which writes only its report, writes a
resolved-config copy into its output directory, and all file outputs are
atomic (temp file + rename). Any other exception is a bug, not a fault of the
input: ``main`` lets it through, so the interpreter prints its traceback and
exits 1. ``ensemble`` and ``evaluate`` spread their videos over worker
processes; the bytes they write do not depend on how many.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_checkpoint
from .data import (
    Manifest,
    ManifestVideo,
    feature_spec,
    feature_specs,
    impute_missing,
    imputation_plan,
    load_feature_track,
    load_labels,
    load_manifest,
    load_video,
    write_feature_file,
)
from .ensemble import read_predictions, vote, write_predictions
from .errors import DataFormatError, NonFiniteError, NumericError, ShapeError
from .evaluation import evaluate_tracks
from .fileio import JsonConfig, atomic_write_bytes, read_json, resolve_beside, write_json
from .models import ExpressionModel
from .training import ExperimentConfig, predict_video, synth_dataset, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# synth_dataset's parameters after out_dir: the synth options and their defaults
_SYNTH_ARGS = dict(list(inspect.signature(synth_dataset).parameters.items())[1:])


def _map_videos(fn, jobs: list) -> list:
    """``[fn(job) for job in jobs]``, one video per job, spread over one forked
    worker process per CPU this process may use, at most one per job.

    Results come back in job order, and the first job that fails, in that
    order, raises its own exception here. The jobs not yet handed to a worker
    are dropped; those already running finish, so no write is cut off. A
    worker that dies (say, killed for memory) raises ``BrokenProcessPool``
    instead of leaving the call waiting. No worker outlives the call. With one
    usable CPU or one job, the jobs run here, in order, until one fails.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(jobs))
    if workers > 1:
        # here, not at the top: no other command starts workers
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # sched_getaffinity exists only where fork does (Linux, the BSDs)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:  # leaving joins them
            return list(pool.map(fn, jobs))
    return list(map(fn, jobs))


# -- commands ---------------------------------------------------------------------


def cmd_prepare(args) -> int:
    manifest = load_manifest(args.manifest)
    extra = {}
    if args.config:
        extra = ExperimentConfig.read_field(read_json(args.config), "registry_extra")
    specs = feature_specs(extra)

    out = args.out
    entries = []
    report = {}
    total_imputed = 0
    for video in manifest.videos:
        load_labels(video.label_file, video_id=video.video_id, n_frames=video.n_frames)
        label_rel = os.path.join("labels", f"{video.video_id}.csv")
        with open(video.label_file, "rb") as fh:
            atomic_write_bytes(os.path.join(out, label_rel), fh.read())
        repairs = {}
        feature_paths = {}
        for name in sorted(video.features):
            feat = load_feature_track(video, name, feature_spec(specs, name))
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
        entries.append(ManifestVideo(video.video_id, video.n_frames, label_rel, feature_paths))

    write_json(os.path.join(out, "manifest.json"), Manifest(entries, manifest.splits).to_json())
    write_json(os.path.join(out, "prepare_report.json"),
               {"videos": report, "total_frames_imputed": total_imputed})
    write_json(os.path.join(out, "resolved_config.json"),
               {"command": "prepare", "manifest": os.path.abspath(args.manifest),
                "registry_extra": extra})
    print(f"{total_imputed} frames imputed")
    print(f"prepared dataset written to {out}")
    return 0


def cmd_synth(args) -> int:
    settings = {name: getattr(args, name) for name in _SYNTH_ARGS}
    manifest_path = synth_dataset(args.out, **settings)
    write_json(os.path.join(args.out, "resolved_config.json"), {"command": "synth", **settings})
    print(f"synthetic dataset at {manifest_path}")
    return 0


def cmd_train(args) -> int:
    config = ExperimentConfig.from_json(read_json(args.config))
    config.manifest = args.manifest or resolve_beside(args.config, config.manifest)
    config.output_dir = args.out or resolve_beside(args.config, config.output_dir)
    if args.seed is not None:
        config.seed = args.seed
    if args.encoder:
        config.model.encoder = args.encoder

    def show(record):
        print(f"epoch {record['epoch']:3d}: loss={record['train_loss']:.5f} "
              f"val_macro_f1={record['val_macro_f1']:.5f} ({record['wall_ms']} ms)")

    result = train(config, log_fn=show)
    print(f"best val macro-F1 {result.best_val_f1:.5f}; checkpoint {result.best_checkpoint}")
    return 0


def cmd_predict(args) -> int:
    run_config = resolve_beside(args.checkpoint, "resolved_config.json")
    config_path = args.config or run_config
    written = os.path.realpath(os.path.join(args.out, "resolved_config.json"))
    if written in (os.path.realpath(config_path), os.path.realpath(run_config)):
        raise DataFormatError(f"--out {args.out} would replace the run config {written}")
    config = ExperimentConfig.from_json(read_json(config_path))
    manifest = load_manifest(args.manifest)
    ids = manifest.split_ids(args.split)
    if not ids:
        raise DataFormatError(f"split {args.split!r} is empty")
    try:
        model = ExpressionModel.from_state(config.model, load_checkpoint(args.checkpoint))
    except NonFiniteError as exc:  # a NaN or infinity stored in the file
        raise DataFormatError(f"{args.checkpoint}: {exc}") from exc
    specs = feature_specs(config.registry_extra)
    for vid in ids:
        video = load_video(manifest.video(vid), specs, config.feature_names())
        track = predict_video(model, video)
        write_predictions(track, os.path.join(args.out, f"{vid}.csv"))
    write_json(os.path.join(args.out, "resolved_config.json"), {
        "command": "predict", "checkpoint": os.path.abspath(args.checkpoint),
        "manifest": os.path.abspath(args.manifest), "split": args.split,
        "overlap_merge": "mean_logits",
        "model": config.model.to_json(),
        "features": {"visual": config.visual_features, "audio": config.audio_features},
    })
    print(f"wrote {len(ids)} prediction files to {args.out}")
    return 0


def _video_labels(job) -> tuple:
    """One video's true and predicted labels: a job of ``cmd_evaluate``. They
    come back as int8, which holds -1..7, so an eighth of the bytes cross from
    a worker and wait in the parent."""
    entry, path = job
    truth = load_labels(entry.label_file, video_id=entry.video_id, n_frames=entry.n_frames)
    return (truth.labels.astype(np.int8),
            read_predictions(path, video_id=entry.video_id).labels.astype(np.int8))


def cmd_evaluate(args) -> int:
    """Score the prediction files in ``--predictions`` against the manifest's
    labels: the split's videos when one is given, else every manifest video
    with a prediction file there."""
    manifest = load_manifest(args.manifest)
    if args.split:
        ids = manifest.split_ids(args.split)
    else:
        ids = [v.video_id for v in manifest.videos
               if os.path.exists(os.path.join(args.predictions, f"{v.video_id}.csv"))]
        if not ids:
            raise DataFormatError(f"no prediction files found in {args.predictions}")
    jobs = [(manifest.video(vid), os.path.join(args.predictions, f"{vid}.csv")) for vid in ids]
    labels = _map_videos(_video_labels, jobs)  # an empty split scores 0 frames
    report = evaluate_tracks({vid: truth for vid, (truth, _) in zip(ids, labels)},
                             {vid: predicted for vid, (_, predicted) in zip(ids, labels)})
    write_json(args.out, report.to_json())
    print(f"macro_f1 {report.macro_f1:.5f} over {report.confusion.sum()} frames; "
          f"report at {args.out}")
    return 0


@dataclass
class EnsembleSpec(JsonConfig):
    """The ``--spec`` file of ``mmexpr ensemble``."""

    members: list[str] = field(default_factory=list)
    strategy: str = "majority_vote"
    tie_break: str = "mean_probability"

    def validate(self):
        if len(self.members) < 2:
            raise DataFormatError("ensemble spec needs at least 2 member directories")
        if self.strategy != "majority_vote" or self.tie_break != "mean_probability":
            raise DataFormatError(f"unsupported ensemble settings: strategy={self.strategy!r}, "
                                  f"tie_break={self.tie_break!r}")
        return self


def _fuse_video(job) -> None:
    """Vote one video's member files into its fused file: a job of ``cmd_ensemble``.
    The worker writes the file itself, so no fused track comes back."""
    vid, member_paths, out = job
    write_predictions(vote([read_predictions(p, video_id=vid) for p in member_paths]), out)


def cmd_ensemble(args) -> int:
    spec = EnsembleSpec.from_json(read_json(args.spec), "spec")
    member_dirs = [resolve_beside(args.spec, m) for m in spec.members]
    for i, d in enumerate(member_dirs):  # one model listed twice would vote twice
        if os.path.realpath(d) in map(os.path.realpath, member_dirs[:i]):
            raise DataFormatError(f"ensemble spec lists member {spec.members[i]!r} twice")
        if os.path.realpath(d) == os.path.realpath(args.out):  # fused files would replace its own
            raise DataFormatError(f"--out {args.out} is ensemble member {spec.members[i]!r}")

    def csv_ids(d):
        return sorted(os.path.splitext(f)[0] for f in os.listdir(d) if f.endswith(".csv"))

    ids = csv_ids(member_dirs[0])
    for d in member_dirs[1:]:
        if csv_ids(d) != ids:
            raise DataFormatError(
                f"member {d} holds videos {csv_ids(d)}, expected {ids}")
    if not ids:
        raise DataFormatError("member directories contain no prediction files")

    _map_videos(_fuse_video, [(vid, [os.path.join(d, f"{vid}.csv") for d in member_dirs],
                               os.path.join(args.out, f"{vid}.csv")) for vid in ids])
    write_json(os.path.join(args.out, "resolved_config.json"), {
        "command": "ensemble", "members": [os.path.abspath(d) for d in member_dirs],
        "strategy": spec.strategy, "tie_break": spec.tie_break,
    })
    print(f"fused {len(ids)} videos from {len(member_dirs)} members into {args.out}")
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
    for name, param in _SYNTH_ARGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(param.default),
                       default=param.default)
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
    except (DataFormatError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
