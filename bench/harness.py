"""Measurement loops, the traced run and the result line; driven by ``run.py``."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import types
from time import perf_counter

import numpy as np

import mmexpr
from mmexpr import (checkpoint, cli, data, ensemble, evaluation, fileio, models, optim,
                    tensor, training)

import tracing
import workloads

MODULES = {"mmexpr": mmexpr, "tensor": tensor, "models": models, "optim": optim,
           "training": training, "checkpoint": checkpoint, "data": data,
           "ensemble": ensemble, "evaluation": evaluation, "fileio": fileio, "cli": cli}

SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0  # cheap set-ups repeat until this much time is spent
STAGE1_SHARE = 0.7  # of --seconds; stage 2 gets the rest
ADAM_BYTES_PER_PARAM = 28  # reads p, g, m, v and writes p, m, v: 7 float32 passes


def make_workload(name, workdir, seed, smoke):
    mm = types.SimpleNamespace(**MODULES)
    if name == "ensemble_eval":
        sizes = workloads.SMOKE_ENSEMBLE if smoke else workloads.EnsembleSizes()
        return workloads.EnsembleWorkload(mm, sizes, workdir, seed)
    sizes = workloads.SMOKE_TRAIN if smoke else workloads.TrainSizes()
    encoder = name.split("_", 1)[1]
    return workloads.TrainWorkload(mm, encoder, sizes, workdir, seed, smoke)


# -- machine block -------------------------------------------------------------------


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block(root):
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    try:
        # the ceiling keeps git from searching directories above the checkout
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)})
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], root):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "mmexpr")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- measurement ----------------------------------------------------------------------


class StageResult:
    def __init__(self, stage):
        self.stage = stage
        self.seconds = []      # wall time of each operation that passed its check
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, seconds, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        else:
            self.seconds.append(seconds)

    def frames_per_s(self):
        """Frames over the time of all passing operations; per-operation times
        are bimodal on a shared host, where a median flips between modes."""
        if not self.seconds:
            return 0.0
        return self.stage.frames * len(self.seconds) / sum(self.seconds)

    def summary(self):
        p50, tail, level, n = tracing.tail_stats(self.seconds)
        return {"stage": self.stage.name, "frames_per_op": self.stage.frames,
                "attempted": self.attempted, "failed": self.failed,
                "frames_per_s": self.frames_per_s(), "op_s_p50": p50,
                f"op_s_p{level}": tail, "ops_timed": n, "op_s": self.seconds,
                "problems": self.problems[:5]}


def run_once(stage, result, tracer=None):
    """Time one operation, then check its output outside the timed region."""
    root = None
    if tracer is not None:
        tracing.install(tracer, MODULES)
        root = tracer.open(tracer.name_id("run." + stage.name))
    started = perf_counter()
    try:
        out = stage.run()
    except Exception:
        result.record(perf_counter() - started, [traceback.format_exc()])
        return None
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.restore()
    seconds = perf_counter() - started
    result.record(seconds, stage.check(out))
    return seconds


def prepare(stage, result):
    if stage.prepare is None:
        return True
    try:
        stage.prepare()
        return True
    except Exception:
        result.record(0.0, ["prepare failed: " + traceback.format_exc()])
        return False


def measure(stages, budgets):
    """Repeat each stage's operation until its timed total reaches its budget.

    After one operation per stage, in order, the operations interleave (the
    stage furthest behind its budget goes next), so every stage samples the
    whole run and not one stretch of the machine's speed.
    """
    results = [StageResult(stage) for stage in stages]
    spent = [0.0] * len(stages)
    ready = []

    def step(i):
        seconds = run_once(stages[i], results[i])
        spent[i] += seconds if seconds is not None else budgets[i]

    for i, stage in enumerate(stages):
        ready.append(prepare(stage, results[i]))
        if ready[i]:
            step(i)
    while True:
        behind = [i for i in range(len(stages)) if ready[i] and spent[i] < budgets[i]]
        if not behind:
            return results
        step(min(behind, key=lambda i: spent[i] / budgets[i]))


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(summary, tracer, overhead, epochs):
    """Every per-layer value the traced run yields, by metric name."""
    c = tracer.counters
    out = {}

    def ms(values):
        return np.asarray(values, np.float64) * 1e3

    def median(values):
        return float(np.median(values)) if len(values) else 0.0

    collect = summary.durations("optim.collect_grads")
    zero = summary.durations("optim.zero_grads")
    per_step = {
        "tensor.nodes_per_step": tracer.samples["nodes_per_step"],
        "tensor.backward_ms_per_step": ms(summary.durations("tensor.backward")),
        "models.fusion_ms_per_step": ms(summary.per_step("models.fusion", "run.train")),
        "models.encoder_ms_per_step": ms(summary.per_step("models.encoder", "run.train")),
        "models.head_ms_per_step": ms(summary.per_step("models.head", "run.train")),
        "models.eval_logits_ms_per_segment": ms(summary.durations("models.eval_logits")),
        "optim.adam_ms_per_step": ms(summary.durations("optim.adam_step")),
        "optim.grad_gather_ms_per_step": ms(collect + zero) if len(collect) == len(zero) else [],
        "training.rdrop_loss_ms_per_step": ms(summary.durations("training.rdrop_loss")),
    }
    for name, values in per_step.items():
        p50, tail, _, n = tracing.tail_stats(values)
        out[name + ".p50"], out[name + ".tail"], out[name + ".n"] = p50, tail, n

    for kind, row in summary.kind_table().items():
        out["tensor.nodes." + kind] = c["nodes." + kind]
        out["tensor.fwd_ms." + kind] = row["fwd_ms"]
        out["tensor.bwd_ms." + kind] = row["bwd_ms"]

    train_self = summary.self_time[summary.ids("run.train")]
    out.update({
        "optim.params": c["params"],
        "optim.bytes_per_step": ADAM_BYTES_PER_PARAM * c["params"],
        "training.eval_s_per_epoch": median(summary.durations("training.evaluate_split",
                                                              within="run.train")),
        "training.steps": len(summary.ids("optim.adam_step")),
        "training.skipped_steps": c["skipped_steps"],
        "training.unattributed_ms_per_call": median(ms(train_self)),
        "checkpoint.save_ms": median(ms(summary.durations("checkpoint.save"))),
        "checkpoint.saves": len(summary.ids("checkpoint.save")),
        "checkpoint.bytes": c["checkpoint_bytes"],
        "data.load_video_ms": median(ms(summary.durations("data.load_video"))),
        "data.segments_ms_per_epoch": float(ms(summary.durations(
            "data.segments", within="run.train")).sum()) / epochs,
        "data.load_labels_ms": median(ms(summary.durations("data.load_labels"))),
        "ensemble.read_ms_per_file": median(ms(summary.durations("ensemble.read"))),
        "ensemble.vote_ms_per_video": median(ms(summary.durations("ensemble.vote"))),
        "ensemble.write_ms_per_file": median(ms(summary.durations("ensemble.write"))),
        "ensemble.tie_share": c["tie_frames"] / c["voted_frames"] if c["voted_frames"] else 0.0,
        "evaluation.evaluate_tracks_ms": median(ms(summary.durations(
            "evaluation.evaluate_tracks"))),
        "fileio.atomic_writes": c["atomic_writes"],
        "fileio.bytes_written": c["bytes_written"],
    })
    for i, share in enumerate(overhead, start=1):
        out[f"trace.overhead_share.stage{i}"] = share
    return out


def traced_run(stages, tracer):
    """Each stage once untraced, then once traced; returns results and overheads."""
    results, overhead = [], []
    for stage in stages:
        result = StageResult(stage)
        results.append(result)
        if not prepare(stage, result):
            overhead.append(0.0)
            continue
        plain = run_once(stage, result)
        traced = run_once(stage, result, tracer)
        overhead.append(traced / plain - 1.0 if plain and traced else 0.0)
    return results, overhead


def trace_report(summary, tracer, overhead, stages):
    """Human-readable tables; every op kind seen is listed, known or not."""
    lines = ["self time by layer (ms):"]
    for layer, self_ms in summary.layer_table().items():
        lines.append(f"  {layer:<12} {self_ms:12.1f}")
    lines.append("self time by span (calls, total ms, self ms):")
    for label, calls, total, self_ms in summary.self_table():
        lines.append(f"  {label:<32} {calls:9d} {total:12.1f} {self_ms:12.1f}")
    lines.append("op kinds (tape nodes, forward calls, fwd self ms, bwd self ms):")
    for kind, row in sorted(summary.kind_table().items()):
        lines.append(f"  {kind:<14} {tracer.counters['nodes.' + kind]:9d} "
                     f"{row['fwd_calls']:9d} {row['fwd_ms']:12.1f} {row['bwd_ms']:12.1f}")
    for i in summary.ids("run.train"):
        lines.append(f"train() unattributed remainder: {summary.self_time[i] * 1e3:.1f} ms "
                     f"of {summary.dur[i] * 1e3:.1f} ms "
                     f"({summary.self_time[i] / summary.dur[i]:.1%})")
    for stage, share in zip(stages, overhead):
        lines.append(f"tracing overhead, stage {stage.name}: {share:+.1%} "
                     f"(one traced vs one untraced operation; {len(summary.name)} spans)")
    return lines


# -- entry point ----------------------------------------------------------------------


def run(args, root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(args.out, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(args.out, f"work-{tag}-{os.getpid()}")
    machine = machine_block(root)
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)

    try:
        wl = make_workload(args.workload, workdir, args.seed, args.smoke)
        setup_s = []
        while not setup_s or not args.trace and (len(setup_s) < SETUP_MIN_REPS
                                                 or sum(setup_s) < SETUP_MIN_S):
            started = perf_counter()
            wl.setup()
            setup_s.append(perf_counter() - started)
        stages = wl.stages()
        report = []
        if args.trace:
            tracer = tracing.Tracer()
            results, overhead = traced_run(stages, tracer)
            summary = tracing.Summary(tracer)
            epochs = getattr(wl.sizes, "epochs", 1)
            values = layer_metrics(summary, tracer, overhead, epochs)
            report = trace_report(summary, tracer, overhead, stages)
            tracer.write(os.path.join(args.out, f"{args.workload}-seed{args.seed}.spans.npz"))
        else:
            budgets = (STAGE1_SHARE * args.seconds, (1.0 - STAGE1_SHARE) * args.seconds)
            results = measure(stages, budgets)
            values = {
                "setup_s": statistics.median(setup_s),
                "stage1_frames_per_s": results[0].frames_per_s(),
                "stage2_frames_per_s": results[1].frames_per_s(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    stage_rows = [r.summary() for r in results]
    for row in stage_rows:
        print("stage " + json.dumps(row, sort_keys=True))
        for problem in row["problems"]:
            print(problem, file=sys.stderr)
    for line in report:
        print(line)
    extra = {}
    if isinstance(wl, workloads.TrainWorkload) and wl.best is not None:
        extra["best_val_macro_f1"] = float(wl.best["best_f1"])
        extra["best_val_macro_f1_floor"] = wl.f1_floor
        print(f"best_val_macro_f1 {float(wl.best['best_f1'])!r} (floor {wl.f1_floor})")
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "machine": machine,
            "setup_s_samples": setup_s, "stages": stage_rows, "metrics": metrics,
            "all_layer_values": values if args.trace else None, "report": report, **extra}
    with open(os.path.join(args.out, tag + ".json"), "w") as fh:
        json.dump(full, fh, indent=1, default=float)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
