"""The benchmark's workloads: what set-up makes, what one operation is, and
how its outputs are checked.

All of them drive the library functions behind the CLI commands
(``harness.cmd_gen_data``, ``cmd_pretrain_backbone``, ``cmd_train`` and
``cmd_eval``), looked up on the ``harness`` module at call time so that a
traced run sees every call.

A run is made of a few tasks. Task j has its own synthetic dataset, whose
seed is derived from the workload seed, and its own fixed training seed
j + 1; operations cycle through the tasks. The quality figure is the mean
over the tasks: one dataset and one initialisation alone spread it more than
any useful bound.
"""
from __future__ import annotations

import json

import numpy as np

import checks
from viapt import harness, prompt_engine
from viapt.backbone import embed_patches, forward_plain
from viapt.inference import InferenceConfig, evaluate_dataset
from viapt.numerics import RngState
from viapt.prompt_engine import FrozenForward
from viapt.training import load_backbone, load_checkpoint

# Desk-scale geometry: d=48, 4 layers, p=8 prompts, lambda=4 instance tokens,
# m=24 retained dims, float32, a 4-class instance_shift task.
GEOMETRY = dict(image_side=16, patch_side=4, embed_dim=48, layers=4, heads=4, mlp_ratio=4,
                classes=4, prompt_tokens=8, instance_tokens=4, retained_dims=24,
                kl_weight=0.01, precision="f32", batch_size=32)
CLASSES = 4
DOWNSTREAM = dict(dataset_variant="instance_shift", dataset_classes=CLASSES, dataset_noise=0.1,
                  train_samples=384)
# the shared frozen backbone: long enough that the pretext task is learnt
BACKBONE_TRAINING = dict(train_samples=512, epochs=4, warmup_epochs=1, lr=3e-3, seed=1)
# one tuning call (the tune operation and the checkpoints predict evaluates)
TUNING = dict(epochs=2, warmup_epochs=0, lr=7e-3)
# one pretraining call (the pretrain operation): short of convergence, so
# the held-out cross-entropy still says how well the call learnt
PRETRAINING = dict(train_samples=384, epochs=3, warmup_epochs=0, lr=1e-3)
ROUNDS = 5
CHECK_BATCH = 32


def task_seed(seed, j):
    return 1000 * seed + j


def run_config(out_dir, data_seed, **overrides):
    flat = dict(GEOMETRY, **DOWNSTREAM, dataset_seed=data_seed, out_dir=str(out_dir))
    flat.update(overrides)
    return harness.make_run_config(None, flat)


def xent_of_probs(probs, labels):
    p = np.asarray(probs, dtype=np.float64)[np.arange(len(labels)), np.asarray(labels, int)]
    return float(-np.mean(np.log(p)))


def xent_of_logits(logits, labels):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), np.asarray(labels, int)].mean())


def projection_errors(model, images, noise, where):
    """Run one batch with the per-layer projections captured and check each
    against LAPACK. The input to layer i's projection is the prompt output of
    layer i - 1, recorded by wrapping the block forward for this call only."""
    outputs = []
    original = prompt_engine.layer_forward

    def recording(seq, lp, cfg, *args, **kwargs):
        out = original(seq, lp, cfg, *args, **kwargs)
        outputs.append(out.prompts.data.copy())
        return out

    capture = FrozenForward()
    frozen = FrozenForward(noise=noise) if noise is not None else None
    prompt_engine.layer_forward = recording
    try:
        model.forward(images, rng=None, frozen=frozen, capture=capture)
    finally:
        prompt_engine.layer_forward = original
    pca = capture.pca or []
    if len(pca) != model.vit.layers - 1:
        return [f"{where}: expected {model.vit.layers - 1} captured projections, got {len(pca)}"]
    errors = []
    for i, (mean, proj) in enumerate(pca):
        errors += [f"{where} layer {i + 1}: {e}"
                   for e in checks.check_projection(outputs[i], mean, proj,
                                                    model.pcfg.retained_dims)]
    return errors


class Workload:
    """setup(run_dir, seed) runs in the set-up child and writes to run_dir;
    prepare(run_dir, seed) loads it in the measuring process; op(k) is the
    timed operation and returns (output, images processed); after_op(k,
    output) and finish() run untimed and return failed-check messages,
    finish() with the quality figure of each task."""

    tasks = 5

    def task(self, k):
        return k % self.tasks

    def setup_downstream(self, run_dir, seed, checkpoint_mode=None):
        """Task datasets, the shared frozen backbone and, for prediction, one
        checkpoint per task tuned in `checkpoint_mode`."""
        for j in range(self.tasks):
            harness.cmd_gen_data(run_config(run_dir / f"data{j}", task_seed(seed, j)))
        bb = run_config(run_dir, seed, **BACKBONE_TRAINING)
        harness.cmd_pretrain_backbone(bb, run_dir / "backbone.ckpt")
        if checkpoint_mode is None:
            return
        for j in range(self.tasks):
            cfg = run_config(run_dir / f"ckpt{j}", task_seed(seed, j), mode=checkpoint_mode,
                             seed=j + 1, **TUNING)
            harness.cmd_train(cfg, run_dir / "backbone.ckpt",
                              data=harness.load_dataset_dir(run_dir / f"data{j}"))

    def load_tasks(self, run_dir):
        return [harness.load_dataset_dir(run_dir / f"data{j}") for j in range(self.tasks)]


class Tune(Workload):
    """Prompt tuning in viapt mode: one operation is one `viapt train` call
    with per-epoch validation, writing best.ckpt, final.ckpt, metrics.jsonl."""

    name = "tune"

    def setup(self, run_dir, seed):
        self.setup_downstream(run_dir, seed)

    def prepare(self, run_dir, seed):
        self.run_dir, self.seed = run_dir, seed
        self.data = self.load_tasks(run_dir)
        self.backbone_path = run_dir / "backbone.ckpt"
        raw, _ = checks.read_archive(self.backbone_path.read_bytes())
        # the head is re-initialised for the downstream classes; all else is frozen
        self.frozen = {n: checks.fingerprint(a) for n, a in raw.items()
                       if not n.startswith("head.")}
        self.results = {}
        self.val_xent = {}

    def op(self, k):
        j = self.task(k)
        cfg = run_config(self.run_dir / f"tune{j}", task_seed(self.seed, j), seed=j + 1, **TUNING)
        result = harness.cmd_train(cfg, self.backbone_path, data=self.data[j])
        return result, cfg.dataset.train_samples * cfg.train.epochs

    def after_op(self, k, result):
        j = self.task(k)
        val = [r for r in result.metrics if r["split"] == "val"]
        xent = val[result.best["epoch"]]["xent"]
        if j in self.val_xent and self.val_xent[j] != xent:
            return [f"rerun of task {j} gave validation xent {xent}, first {self.val_xent[j]}"]
        self.val_xent[j] = xent
        self.results.setdefault(j, result)
        return []

    def finish(self):
        errors = []
        g = GEOMETRY
        expected = checks.viapt_trainable_count(g["embed_dim"], g["layers"], g["prompt_tokens"],
                                                g["instance_tokens"], g["retained_dims"], CLASSES)
        for j, result in sorted(self.results.items()):
            where = f"task {j}"
            out = self.run_dir / f"tune{j}"
            model = result.final.model
            tensors = dict(model.named_tensors())
            errors += checks.check_frozen(
                self.frozen, {n: t.data for n, t in tensors.items() if not t.trainable},
                f"{where} model")
            best_raw, _ = checks.read_archive((out / "best.ckpt").read_bytes())
            final_raw, _ = checks.read_archive((out / "final.ckpt").read_bytes())
            errors += checks.check_frozen(self.frozen, best_raw, f"{where} best.ckpt")
            actual = sum(t.data.size for t in tensors.values() if t.trainable)
            errors += checks.check_param_count(actual, expected)
            records = [json.loads(ln) for ln in (out / "metrics.jsonl").read_text().splitlines()]
            train_curve = [r["xent"] for r in records if r["split"] == "train"]
            errors += [f"{where}: {e}" for e in checks.check_training_curve(train_curve)]
            # final.ckpt holds the in-memory model bit for bit; best.ckpt reloads bit for bit
            errors += checks.check_bitwise(
                {n: t.data for n, t in tensors.items()},
                {n: a for n, a in final_raw.items() if not n.startswith("opt.")},
                f"{where} final.ckpt")
            state = load_checkpoint(out / "best.ckpt")
            reloaded = {n: t.data for n, t in state.model.named_tensors()}
            for name, slot in state.opt.moments.items():
                reloaded[f"opt.m.{name}"] = slot["m"]
                reloaded[f"opt.v.{name}"] = slot["v"]
            errors += checks.check_bitwise(best_raw, reloaded, f"{where} best.ckpt reload")
            images = self.data[j]["train"][0][:CHECK_BATCH]
            noise = RngState(j + 1).gaussian(
                (len(images), model.pcfg.instance_tokens, model.vit.embed_dim), dtype=np.float32)
            errors += projection_errors(model, images, noise, where)
        xents = [self.val_xent[j] for j in sorted(self.val_xent)]
        # one hard task may end a two-epoch budget above ln C; the figure may not
        errors += checks.check_below_uniform(sum(xents) / len(xents), CLASSES,
                                             "mean best validation xent")
        return xents, errors


class Predict(Workload):
    """Evaluation of a tuned checkpoint on its task's held-out test split with
    one strategy: one operation is one `viapt eval` call."""

    def __init__(self, name, strategy, mode):
        self.name, self.strategy, self.mode = name, strategy, mode

    def setup(self, run_dir, seed):
        self.setup_downstream(run_dir, seed, checkpoint_mode=self.mode)

    def prepare(self, run_dir, seed):
        self.run_dir = run_dir
        self.data = self.load_tasks(run_dir)
        # the CLI's default noise seed: fixed sampling's quality rests on its one
        # shared draw, so a seed-dependent draw would spread the xent figure
        self.icfg = InferenceConfig(strategy=self.strategy, rounds=ROUNDS, noise_seed=0)
        self.first = {}

    def ckpt(self, j):
        return self.run_dir / f"ckpt{j}" / "best.ckpt"

    def op(self, k):
        j = self.task(k)
        _, records = harness.cmd_eval(self.ckpt(j), self.data[j], self.icfg,
                                      out_dir=self.run_dir / "eval", split="test")
        return records, len(records)

    def after_op(self, k, records):
        j = self.task(k)
        probs = np.array([r["probabilities"] for r in records])
        if j not in self.first:
            self.first[j] = probs
        elif not np.array_equal(probs, self.first[j]):
            return [f"evaluation {k} of task {j} differs from its first"]
        return []

    def finish(self):
        errors, xents = [], []
        for j, probs in sorted(self.first.items()):
            where = f"{self.name} task {j}"
            images, labels = self.data[j]["test"]
            errors += [f"{where}: {e}" for e in checks.check_probabilities(probs)]
            model = load_checkpoint(self.ckpt(j)).model
            if j == 0:
                errors += self.invariance_errors(model, images, labels, probs, where)
            noise = None
            if model.pcfg.probabilistic:
                noise = RngState(self.icfg.noise_seed).gaussian(
                    (model.pcfg.instance_tokens, model.vit.embed_dim), dtype=np.float32)
            errors += projection_errors(model, images[:CHECK_BATCH], noise, where)
            xents.append(xent_of_probs(probs, labels))
        return xents, errors

    def invariance_errors(self, model, images, labels, probs, where):
        """The split again, in another order and with batch size 7: every
        image must get the same probabilities."""
        n = len(labels)
        if self.strategy == "multi_round":
            # each image's noise stream is keyed by its position in the split,
            # so only the batching may change here, not the order
            order = np.arange(n)
        else:
            order = np.random.default_rng(n).permutation(n)
        _, records = evaluate_dataset(model, images[order], labels[order], self.icfg,
                                      batch_size=7)
        other = np.empty_like(probs)
        other[order] = [r["probabilities"] for r in records]
        return checks.check_invariance(probs, other, f"{where}: permuted order, batch size 7")


class Pretrain(Workload):
    """Rotation-pretext backbone pretraining with every backbone tensor
    trainable: one operation is one `viapt pretrain-backbone` call."""

    name = "pretrain"
    tasks = 7

    def setup(self, run_dir, seed):
        for j in range(self.tasks):
            cfg = run_config(run_dir / f"data{j}", task_seed(seed, j),
                             dataset_variant="pretext_rotation",
                             train_samples=PRETRAINING["train_samples"])
            harness.cmd_gen_data(cfg)

    def prepare(self, run_dir, seed):
        self.run_dir, self.seed = run_dir, seed
        self.heldout = [d["test"] for d in self.load_tasks(run_dir)]
        self.xent = {}

    def op(self, k):
        j = self.task(k)
        cfg = run_config(self.run_dir, task_seed(self.seed, j), seed=j + 1, **PRETRAINING)
        path = harness.cmd_pretrain_backbone(cfg, self.run_dir / f"backbone{j}.ckpt")
        return path, cfg.dataset.train_samples * cfg.train.epochs

    def after_op(self, k, path):
        j = self.task(k)
        backbone, vit = load_backbone(path)
        images, labels = self.heldout[j]
        logits = forward_plain(embed_patches(images, backbone, vit), backbone, vit).data
        xent = xent_of_logits(logits, labels)
        if j in self.xent and self.xent[j] != xent:
            return [f"rerun of task {j} gave held-out xent {xent}, first {self.xent[j]}"]
        self.xent[j] = xent
        return []

    def finish(self):
        errors = []
        for j, xent in sorted(self.xent.items()):
            errors += checks.check_below_uniform(xent, 4, f"task {j} held-out pretext xent")
        return [self.xent[j] for j in sorted(self.xent)], errors


WORKLOADS = {w.name: w for w in (
    Tune(),
    Predict("multi_round", "multi_round", "viapt"),
    Predict("fixed_sampling", "fixed_sampling", "viapt"),
    Predict("direct", "direct", "direct_generation"),
    Pretrain(),
)}
