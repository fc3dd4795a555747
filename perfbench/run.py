"""Benchmark of viapt's prompt tuning, prediction and backbone pretraining.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 12 --trace 0

Set-up (datasets, the frozen backbone and, for prediction, tuned
checkpoints) runs in a child process, so that its memory peak cannot mask
the timed region's. The timed region then repeats the workload's operation
until --seconds have passed; correctness checks run after it. The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
See README.md in this directory.
"""
from __future__ import annotations

import time

_T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _process_age():
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


_AGE_AT_SCRIPT = _process_age()

# BLAS threads: pinned to the cores this process may use, before numpy loads
CORES = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CORES)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import viapt from this checkout's src/, never from anywhere else."""
    if not (SRC / "viapt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'viapt'}")
    sys.path.insert(0, str(SRC))
    import viapt

    if Path(viapt.__file__).resolve().parent != (SRC / "viapt").resolve():
        sys.exit(f"perfbench: imported viapt from {viapt.__file__}, not {SRC}")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            names = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "cores": CORES,
            "blas_threads": CORES, "cpu": cpu, "machine": platform.machine()}


# --------------------------------------------------------------------------
# tracing targets: (span name, lookup sites, counter)
# --------------------------------------------------------------------------

def _count_matrices(tr, args, kwargs):
    tr.count("numerics.svd.jacobi_svd_batch.matrices", args[0].shape[0])


def _count_rows(tr, args, kwargs):
    tr.count("prompt_engine.encode_statistics.rows", args[0].data.shape[0])


def _count_tape(tr, args, kwargs):
    """Nodes reachable from the loss through the tape's parent links."""
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    tr.count("numerics.tensor.backward.tape_nodes", len(seen))


TARGETS = [
    ("harness.cmd_gen_data", [("viapt.harness", "cmd_gen_data")], None),
    ("harness.cmd_pretrain_backbone", [("viapt.harness", "cmd_pretrain_backbone")], None),
    ("harness.cmd_train", [("viapt.harness", "cmd_train")], None),
    ("harness.cmd_eval", [("viapt.harness", "cmd_eval")], None),
    ("harness.gen_dataset", [("viapt.harness", "gen_dataset")], None),
    ("training.train", [("viapt.harness", "train")], None),
    ("training.pretrain_backbone", [("viapt.harness", "pretrain_backbone")], None),
    ("training.loss", [("viapt.training", "loss")], None),
    ("training.optimizer_step", [("viapt.training", "optimizer_step")], None),
    ("training.save_checkpoint", [("viapt.training", "save_checkpoint")], None),
    ("training.load_checkpoint", [("viapt.harness", "load_checkpoint")], None),
    ("training.save_backbone", [("viapt.harness", "save_backbone")], None),
    ("inference.evaluate_dataset", [("viapt.harness", "evaluate_dataset")], None),
    ("backbone.embed_patches", [("viapt.training", "embed_patches")], None),
    ("backbone.forward_plain", [("viapt.training", "forward_plain")], None),
    ("backbone.layer_forward", [("viapt.prompt_engine", "layer_forward"),
                                ("viapt.backbone", "layer_forward")], None),
    ("prompt_engine.forward_viapt", [("viapt.training", "forward_viapt")], None),
    ("prompt_engine.encode_statistics", [("viapt.prompt_engine", "encode_statistics")],
     _count_rows),
    ("prompt_engine.generate_direct_prompts",
     [("viapt.prompt_engine", "generate_direct_prompts")], None),
    ("numerics.svd.jacobi_svd_batch", [("viapt.prompt_engine", "jacobi_svd_batch"),
                                       ("viapt.numerics.svd", "jacobi_svd_batch")],
     _count_matrices),
    ("numerics.rng.gaussian", [("viapt.numerics.rng", "RngState.gaussian"),
                               ("viapt.inference", "gaussian_block")], None),
    ("numerics.tensor.backward", [("viapt.numerics", "backward")], _count_tape),
]

END_TO_END_UNITS = {"images_per_s": "images/s", "xent": "nats", "setup_s": "s", "peak_mem_mb": "MB"}

# spans whose self time is reported per operation of the timed region
OP_SELF = [name for name, _, _ in TARGETS if name != "harness.cmd_gen_data"]
# top-level set-up commands, reported by their whole duration per run
SETUP_TOTAL = ["harness.cmd_gen_data", "harness.cmd_pretrain_backbone", "harness.cmd_train"]


def per_layer_metrics(tracer, ops):
    op = tracer.self_times("op")
    setup = tracer.self_times("setup")
    setup_total = tracer.durations("setup")
    metrics = {}
    for name in OP_SELF:
        metrics[f"{name}.self_s"] = (op.get(name, (0.0, 0))[0] / ops, "s")
    for name in ("backbone.layer_forward", "numerics.svd.jacobi_svd_batch",
                 "numerics.tensor.backward"):
        metrics[f"{name}.calls"] = (op.get(name, (0.0, 0))[1] / ops, "count")
    for name in ("numerics.svd.jacobi_svd_batch.matrices", "prompt_engine.encode_statistics.rows"):
        metrics[name] = (tracer.counts.get(("op", name), 0) / ops, "count")
    steps = op.get("numerics.tensor.backward", (0.0, 0))[1]
    nodes = tracer.counts.get(("op", "numerics.tensor.backward.tape_nodes"), 0)
    metrics["numerics.tensor.backward.tape_nodes"] = (nodes / steps if steps else 0.0, "count")
    gen_self = setup.get("harness.gen_dataset", (0.0, 0))[0]
    metrics["setup.harness.gen_dataset.self_s"] = (gen_self, "s")
    for name in SETUP_TOTAL:
        metrics[f"setup.{name}.s"] = (setup_total.get(name, 0.0), "s")
    return metrics


# --------------------------------------------------------------------------


def run_setup_child(args, run_dir):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setup-only", str(run_dir)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=150)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"perfbench: set-up failed with exit code {done.returncode}")


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload '{args.workload}' (choose from {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        tracer.install(TARGETS)

    if args.setup_only:
        run_dir = Path(args.setup_only)
        tracer.phase = "setup" if args.trace else None
        workload.setup(run_dir, args.seed)
        tracer.phase = None
        if args.trace:
            tracer.write(run_dir / "setup_trace.json")
        return 0

    run_dir = HERE / "_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return measure(args, workload, tracer, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def measure(args, workload, tracer, run_dir):
    run_setup_child(args, run_dir)
    if args.trace:
        tracer.merge_json(json.loads((run_dir / "setup_trace.json").read_text()))
    workload.prepare(run_dir, args.seed)

    # timed region: whole operations until --seconds have passed
    setup_s = _AGE_AT_SCRIPT + (time.perf_counter() - _T_SCRIPT)
    rates, op_errors, check_errors, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        k = len(rates) + failed
        tracer.phase = "op" if args.trace else None
        t0 = time.perf_counter()
        try:
            out, images = workload.op(k)
        except (ValueError, RuntimeError) as e:  # viapt's ConfigError, FormatError, NumericError
            failed += 1
            op_errors.append(f"operation {k} failed: {type(e).__name__}: {e}")
            out = None
        dt = time.perf_counter() - t0
        tracer.phase = None
        if out is not None:
            rates.append(images / dt)
            check_errors += workload.after_op(k, out)
        attempted = len(rates) + failed
        if attempted >= workload.tasks and time.perf_counter() - start >= args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not rates:
        sys.exit("perfbench: every operation failed:\n" + "\n".join(op_errors))
    task_xent, finish_errors = workload.finish()
    check_errors += finish_errors
    for e in op_errors + check_errors:
        print(f"perfbench: {e}", file=sys.stderr)

    # On a shared machine other tenants slow whole stretches of a run; the
    # fastest operations are the least disturbed. The median of the three
    # fastest is steady across runs where the median of all is not, and no
    # single fast outlier sets it.
    images_per_s = statistics.median(sorted(rates)[-3:])
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), "operations": attempted,
            "images_per_s": images_per_s, "rates": rates, "task_xent": task_xent}
    if args.trace:
        (HERE / "_traces").mkdir(exist_ok=True)
        trace_path = HERE / "_traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["absent_layers"] = tracer.absent
        metrics = per_layer_metrics(tracer, len(rates))
    else:
        values = {"images_per_s": images_per_s, "xent": statistics.fmean(task_xent),
                  "setup_s": setup_s, "peak_mem_mb": peak_mb}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    tracer.uninstall()
    print(json.dumps(info))
    print(json.dumps({"correct": not check_errors, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if not check_errors else 1


if __name__ == "__main__":
    sys.exit(main())
