"""Objective, AdamW optimizer, schedule, training loop, and checkpointing.

The loop is mode-agnostic: every prompting variant routes through the
combined forward rule, whose endpoint short-circuits make the shallow/deep
baselines exact. Runs are deterministic given (seed, single-worker mode);
all reductions use a fixed summation order and the RNG is counter-based.
"""
from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import numerics as nm
from .backbone import BackboneParams, ViTConfig, embed_patches, forward_plain, init_backbone, reinit_head
from .errors import ConfigError, FormatError, NumericError
from .numerics import ALGORITHM_ID, RngState, Tensor
from .prompt_engine import (
    DatasetPrompts,
    DirectGeneratorParams,
    FrozenForward,
    GeneratorParams,
    PromptConfig,
    forward_viapt,
    init_dataset_prompts,
    init_direct_generator,
    init_generator,
    kl_to_standard_normal,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

MAGIC = b"VIAPT\x01"
FORMAT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}

METRIC_KEYS = ("epoch", "split", "xent", "kl", "total", "accuracy", "lr", "wall_seconds")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.01
    batch_size: int = 32
    epochs: int = 100
    warmup_epochs: int = 10
    clip_norm: float = 1.0
    seed: int = 1
    precision: str = "f32"

    def __post_init__(self):
        # lr = 0 is allowed: a no-op training pass that still emits metrics
        if self.lr < 0 or self.batch_size <= 0:
            raise ConfigError("learning rate must be >= 0 and batch size positive")
        if self.weight_decay < 0 or self.clip_norm <= 0:
            raise ConfigError("weight decay must be >= 0 and clip norm > 0")
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ConfigError("epochs and warmup must be non-negative")
        if self.epochs > 0 and self.warmup_epochs > self.epochs:
            raise ConfigError(f"warmup {self.warmup_epochs} exceeds epochs {self.epochs}")
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be f32 or f64, got {self.precision}")


def dtype_for(precision: str):
    """numpy dtype of a precision name; KeyError for anything but f32/f64."""
    return {"f32": np.float32, "f64": np.float64}[precision]


# --------------------------------------------------------------------------
# objective
# --------------------------------------------------------------------------

def loss(logits: Tensor, labels: np.ndarray, mu, logvar, beta: float):
    """(total, xent, kl) with total = xent + beta * kl.

    xent is the batch-mean negative log softmax at the label; kl is the
    batch-mean closed-form divergence, exactly 0 when there is no
    probabilistic instance path. Per-sample sums run over the feature axis
    first, then the batch (fixed summation order).
    """
    labels = np.asarray(labels)
    n_classes = logits.data.shape[-1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise ConfigError(f"label outside [0, {n_classes})")
    ls = nm.log_softmax(logits)
    xent = nm.neg(nm.mean_(nm.take_label(ls, labels)))
    if mu is not None:
        kl = nm.mean_(kl_to_standard_normal(mu, logvar))
    else:
        kl = nm.constant(np.zeros((), dtype=logits.data.dtype))
    total = nm.add(xent, nm.scale(kl, beta))
    return total, xent, kl


def lr_schedule(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear ramp 0 -> base over warmup, cosine decay base -> 0 afterwards."""
    if step > total_steps:
        raise ConfigError(f"step {step} beyond total {total_steps}")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    t = (step - warmup_steps) / span
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * t))


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Adaptive-moment accumulators, one pair per trainable tensor."""

    moments: dict = field(default_factory=dict)
    step: int = 0

    def slot(self, name: str, like: np.ndarray):
        if name not in self.moments:
            self.moments[name] = {
                "m": np.zeros_like(like),
                "v": np.zeros_like(like),
            }
        return self.moments[name]


def global_grad_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def optimizer_step(params: dict, grads: dict, state: OptimizerState, lr_t: float,
                   weight_decay: float = 0.0):
    """One AdamW update: bias-corrected moments, decoupled multiplicative
    weight decay on parameters only. Frozen tensors never appear in params.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in '{name}'")
        slot = state.slot(name, tensor.data)
        slot["m"] = ADAM_BETA1 * slot["m"] + (1.0 - ADAM_BETA1) * g
        slot["v"] = ADAM_BETA2 * slot["v"] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = slot["m"] / c1
        v_hat = slot["v"] / c2
        dtype = tensor.data.dtype.type
        if weight_decay:
            tensor.data *= dtype(1.0 - lr_t * weight_decay)
        tensor.data -= (dtype(lr_t) * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))).astype(
            tensor.data.dtype
        )


# --------------------------------------------------------------------------
# model bundle
# --------------------------------------------------------------------------

@dataclass
class PromptModel:
    vit: ViTConfig
    pcfg: PromptConfig
    backbone: BackboneParams
    prompts: DatasetPrompts
    generator: GeneratorParams | DirectGeneratorParams | None = None
    fixed_basis: Tensor | None = None  # random-projection ablation, drawn once per run

    def named_tensors(self):
        items = list(self.backbone.named_tensors())
        items.extend(self.prompts.named_tensors())
        if self.generator is not None:
            items.extend(self.generator.named_tensors())
        if self.fixed_basis is not None:
            items.append(("aux.random_projection_basis", self.fixed_basis))
        return items

    def trainable_named(self):
        return [(n, t) for n, t in self.named_tensors() if t.trainable]

    def forward(self, images, rng: RngState | None, frozen: FrozenForward | None = None,
                capture: FrozenForward | None = None):
        e0 = embed_patches(np.asarray(images, dtype=self.backbone.patch_w.data.dtype),
                           self.backbone, self.vit)
        basis = self.fixed_basis.data if self.fixed_basis is not None else None
        return forward_viapt(e0, self.pcfg, self.prompts, self.generator,
                             self.backbone, self.vit, rng, frozen=frozen,
                             capture=capture, basis_override=basis)


def build_model(vit: ViTConfig, pcfg: PromptConfig, init_rng: RngState,
                backbone: BackboneParams, dtype=np.float32) -> PromptModel:
    """Assemble prompts/generator around a (frozen) backbone. The generator
    exists only for modes that use instance tokens."""
    from .prompt_engine import random_orthonormal_basis

    rcfg = pcfg.resolved(vit.embed_dim)
    prompts = init_dataset_prompts(rcfg, vit, init_rng, dtype=dtype)
    generator = None
    if rcfg.instance_tokens > 0:
        if rcfg.mode == "direct_generation":
            generator = init_direct_generator(vit.embed_dim, rcfg.instance_tokens,
                                              init_rng, dtype=dtype)
        else:
            generator = init_generator(vit.embed_dim, init_rng, dtype=dtype)
    fixed_basis = None
    if rcfg.mode == "ablation_random_projection":
        basis = random_orthonormal_basis(vit.embed_dim, rcfg.retained_dims,
                                         init_rng.derive("random-projection-basis"),
                                         dtype=dtype)
        fixed_basis = Tensor(basis, name="aux.random_projection_basis")
    return PromptModel(vit=vit, pcfg=rcfg, backbone=backbone, prompts=prompts,
                       generator=generator, fixed_basis=fixed_basis)


def actual_trainable_count(model: PromptModel) -> int:
    """Number of parameters the optimizer actually updates (in contrast to
    the published-accounting figures in prompt_engine.count_parameters)."""
    return int(sum(t.data.size for _, t in model.trainable_named()))


@dataclass
class TrainState:
    model: PromptModel
    opt: OptimizerState
    rng: RngState
    step: int = 0
    train_cfg: TrainConfig | None = None


# --------------------------------------------------------------------------
# checkpoint archive
# --------------------------------------------------------------------------

def save_archive(path, tensors: dict, metadata: dict) -> None:
    """Binary tensor archive; see load_archive for the layout. Byte-exact for
    identical inputs (metadata is serialized with sorted keys)."""
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<H", FORMAT_VERSION)
    meta = json.dumps(metadata, sort_keys=True).encode("utf-8")
    buf += struct.pack("<I", len(meta))
    buf += meta
    buf += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        code = _DTYPE_CODES.get(arr.dtype)
        if code is None:
            raise FormatError(f"unsupported dtype {arr.dtype} for entry '{name}'")
        nb = name.encode("utf-8")
        buf += struct.pack("<H", len(nb)) + nb
        buf += struct.pack("<BB", code, arr.ndim)
        for dim in arr.shape:
            buf += struct.pack("<Q", dim)
        buf += arr.astype(_CODE_DTYPES[code], copy=False).tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(buf))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"truncated archive while reading {what}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]


def load_archive(path):
    """Read an archive written by save_archive; returns (tensors, metadata).

    Layout: magic "VIAPT\\x01", u16 version, u32 metadata length + JSON,
    u32 entry count, then per entry u16 name length + name, u8 dtype code
    (1=f32, 2=f64), u8 rank, u64 dims, raw little-endian payload; trailing
    CRC32 over everything before it. Any mismatch raises FormatError naming
    the offending field; nothing is returned from a corrupt file.
    """
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 4:
        raise FormatError("truncated archive while reading magic")
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic; not a checkpoint archive")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise FormatError(f"crc mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}")
    r = _Reader(blob[:-4])
    r.take(len(MAGIC), "magic")
    version = r.unpack("<H", "format version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    meta_len = r.unpack("<I", "metadata length")
    try:
        metadata = json.loads(r.take(meta_len, "metadata").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"corrupt metadata block: {e}") from e
    count = r.unpack("<I", "entry count")
    tensors = {}
    for i in range(count):
        name_len = r.unpack("<H", f"entry {i} name length")
        name = r.take(name_len, f"entry {i} name").decode("utf-8")
        code = r.unpack("<B", f"entry '{name}' dtype code")
        if code not in _CODE_DTYPES:
            raise FormatError(f"entry '{name}': unknown dtype code {code}")
        rank = r.unpack("<B", f"entry '{name}' rank")
        shape = tuple(r.unpack("<Q", f"entry '{name}' dim {j}") for j in range(rank))
        nbytes = int(np.prod(shape, dtype=np.int64)) * _CODE_DTYPES[code].itemsize
        payload = r.take(nbytes, f"entry '{name}' payload")
        tensors[name] = np.frombuffer(payload, dtype=_CODE_DTYPES[code]).reshape(shape).copy()
    if r.pos != len(r.blob):
        raise FormatError(f"{len(r.blob) - r.pos} trailing bytes after last entry")
    return tensors, metadata


def save_checkpoint(state: TrainState, path) -> None:
    """Model tensors plus optimizer moments and RNG position, bit-exact."""
    tensors = {name: t.data for name, t in state.model.named_tensors()}
    for name, slot in state.opt.moments.items():
        tensors[f"opt.m.{name}"] = slot["m"]
        tensors[f"opt.v.{name}"] = slot["v"]
    metadata = {
        "config": {
            "vit": asdict(state.model.vit),
            "prompt": asdict(state.model.pcfg),
            "train": asdict(state.train_cfg) if state.train_cfg else None,
        },
        "rng": {"algorithm": state.rng.algorithm, "seed": state.rng.seed,
                "counter": state.rng.counter},
        "step": state.step,
        "opt_step": state.opt.step,
        "precision": "f32" if state.model.backbone.patch_w.data.dtype == np.float32 else "f64",
    }
    save_archive(path, tensors, metadata)


def load_checkpoint(path, expect_precision: str | None = None) -> TrainState:
    """Inverse of save_checkpoint. Metadata that is missing a key, carries an
    unknown config field or holds a config value that fails validation
    raises FormatError."""
    tensors, metadata = load_archive(path)
    try:
        precision = metadata.get("precision")
        if expect_precision is not None and precision != expect_precision:
            raise FormatError(
                f"precision mismatch: archive is {precision}, run wants {expect_precision}"
            )
        rng_meta = metadata["rng"]
        if rng_meta["algorithm"] != ALGORITHM_ID:
            raise FormatError(f"unknown rng algorithm '{rng_meta['algorithm']}'")
        rng = RngState(rng_meta["seed"], rng_meta["counter"], rng_meta["algorithm"])
        cfg = metadata["config"]
        vit = ViTConfig(**cfg["vit"])
        pcfg = PromptConfig(**cfg["prompt"]).resolved(vit.embed_dim)
        tcfg = TrainConfig(**cfg["train"]) if cfg.get("train") else None
        dtype = dtype_for(precision)
    except (KeyError, TypeError, AttributeError, ConfigError) as e:
        raise FormatError(f"malformed checkpoint metadata: {e!r}") from e
    backbone = init_backbone(vit, RngState(0), dtype=dtype)
    backbone.freeze()
    model = build_model(vit, pcfg, RngState(0), backbone, dtype=dtype)
    expected = dict(model.named_tensors())
    opt = OptimizerState(step=metadata.get("opt_step", 0))
    for name, arr in tensors.items():
        if name.startswith("opt.m.") or name.startswith("opt.v."):
            base = name[6:]
            if base not in expected:
                raise FormatError(f"optimizer moment for unknown tensor '{base}'")
            slot = opt.slot(base, arr)
            slot["m" if name.startswith("opt.m.") else "v"] = arr.astype(dtype, copy=False)
            continue
        if name not in expected:
            raise FormatError(f"unexpected tensor '{name}' in archive")
        if expected[name].data.shape != arr.shape:
            raise FormatError(
                f"tensor '{name}' shaped {arr.shape}, model wants {expected[name].data.shape}"
            )
        expected[name].data = arr.astype(dtype, copy=False)
    missing = [n for n in expected if n not in tensors]
    if missing:
        raise FormatError(f"archive missing tensors: {missing[:4]}")
    return TrainState(model=model, opt=opt, rng=rng, step=metadata.get("step", 0),
                      train_cfg=tcfg)


def save_backbone(backbone: BackboneParams, vit: ViTConfig, path, extra_meta=None) -> None:
    tensors = {name: t.data for name, t in backbone.named_tensors()}
    metadata = {"config": {"vit": asdict(vit)}, "kind": "backbone",
                "precision": "f32" if backbone.patch_w.data.dtype == np.float32 else "f64",
                "rng": {"algorithm": ALGORITHM_ID, "seed": 0, "counter": 0}}
    if extra_meta:
        metadata.update(extra_meta)
    save_archive(path, tensors, metadata)


def load_backbone(path, expect_precision: str | None = None):
    """Inverse of save_backbone; malformed or invalid metadata raises
    FormatError."""
    tensors, metadata = load_archive(path)
    try:
        if metadata.get("kind") != "backbone":
            raise FormatError("archive is not a backbone checkpoint")
        precision = metadata.get("precision")
        if expect_precision is not None and precision != expect_precision:
            raise FormatError(
                f"precision mismatch: archive is {precision}, run wants {expect_precision}"
            )
        vit = ViTConfig(**metadata["config"]["vit"])
        dtype = dtype_for(precision)
    except (KeyError, TypeError, AttributeError, ConfigError) as e:
        raise FormatError(f"malformed backbone metadata: {e!r}") from e
    backbone = init_backbone(vit, RngState(0), dtype=dtype)
    for name, t in backbone.named_tensors():
        if name not in tensors:
            raise FormatError(f"backbone archive missing tensor '{name}'")
        t.data = tensors[name].astype(dtype, copy=False)
    return backbone, vit


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------

def _batches(n: int, batch_size: int, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start : start + batch_size]


def _apply_gradients(params: dict, opt: OptimizerState, lr_t: float, cfg: TrainConfig):
    """Clip the global gradient norm to cfg.clip_norm, take one AdamW step
    and clear the gradients."""
    grads = {name: t.grad for name, t in params.items() if t.grad is not None}
    gnorm = global_grad_norm(grads)
    if gnorm > cfg.clip_norm:
        s = cfg.clip_norm / gnorm
        grads = {k: g * s for k, g in grads.items()}
    optimizer_step(params, grads, opt, lr_t, cfg.weight_decay)
    nm.zero_grads(params.values())


def _evaluate_split(model: PromptModel, images, labels, batch_size: int, beta: float,
                    frozen: FrozenForward | None):
    """Deterministic pass over one split; returns (xent, kl, total, accuracy)."""
    n = len(labels)
    sums = np.zeros(3, dtype=np.float64)
    correct = 0
    for sel in _batches(n, batch_size):
        with nm.no_grad():
            logits, mu, logvar = model.forward(images[sel], rng=None, frozen=frozen)
            total, xent, kl = loss(logits, labels[sel], mu, logvar, beta)
        sums += np.array([xent.data, kl.data, total.data], dtype=np.float64) * len(sel)
        correct += int((np.argmax(logits.data, axis=-1) == labels[sel]).sum())
    sums /= max(n, 1)
    return float(sums[0]), float(sums[1]), float(sums[2]), correct / max(n, 1)


def _metric_record(epoch, split, xent, kl, total, accuracy, lr, wall_seconds):
    return {
        "epoch": int(epoch), "split": split, "xent": float(xent), "kl": float(kl),
        "total": float(total), "accuracy": float(accuracy), "lr": float(lr),
        "wall_seconds": float(wall_seconds),
    }


@dataclass
class TrainResult:
    final: TrainState
    best: dict
    metrics: list


def _frozen_tensor_fingerprint(model: PromptModel):
    return {n: zlib.crc32(t.data.tobytes()) for n, t in model.named_tensors()
            if not t.trainable}


def train(cfg: TrainConfig, pcfg: PromptConfig, data: dict, backbone: BackboneParams,
          vit: ViTConfig, out_dir=None, record_timing: bool = False) -> TrainResult:
    """Frozen-backbone prompt tuning.

    data maps split name -> (images, labels); "train" and "val" are used.
    Emits one metrics record per (epoch, split); retains the best-validation
    checkpoint (accuracy, then lower loss, then earlier epoch). wall_seconds
    is 0.0 unless record_timing is set, keeping reruns byte-identical.
    """
    import time

    if len(data["train"][1]) == 0:
        raise ConfigError("the training split holds no images")
    dtype = dtype_for(cfg.precision)
    backbone.freeze()
    init_rng = RngState(cfg.seed).derive("init")
    model = build_model(vit, pcfg, init_rng, backbone, dtype=dtype)
    reinit_head(backbone, vit, init_rng, vit.classes, dtype=dtype)
    frozen_before = _frozen_tensor_fingerprint(model)

    train_x, train_y = data["train"]
    val_x, val_y = data.get("val", (train_x[:0], train_y[:0]))
    train_x = np.asarray(train_x, dtype=dtype)
    val_x = np.asarray(val_x, dtype=dtype)
    n = len(train_y)
    beta = model.pcfg.kl_weight
    steps_per_epoch = max((n + cfg.batch_size - 1) // cfg.batch_size, 1)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch

    noise_rng = RngState(cfg.seed).derive("train-noise")
    shuffle_rng = RngState(cfg.seed).derive("shuffle")
    val_frozen = None
    if model.pcfg.probabilistic:
        val_z = RngState(cfg.seed).derive("val-noise").gaussian(
            (model.pcfg.instance_tokens, vit.embed_dim), dtype=dtype)
        val_frozen = FrozenForward(noise=val_z)

    opt = OptimizerState()
    state = TrainState(model=model, opt=opt, rng=noise_rng, step=0, train_cfg=cfg)
    metrics: list[dict] = []
    best = {"accuracy": -1.0, "loss": np.inf, "epoch": -1, "state_bytes": None}
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    trainable = dict(model.trainable_named())
    last_good = None
    step = 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        ep_sums = np.zeros(3, dtype=np.float64)
        ep_correct = 0
        lr_t = 0.0
        for sel in _batches(n, cfg.batch_size, order):
            step += 1
            lr_t = lr_schedule(step, total_steps, warmup_steps, cfg.lr)
            logits, mu, logvar = model.forward(train_x[sel], rng=noise_rng)
            total, xent, kl = loss(logits, train_y[sel], mu, logvar, beta)
            if not np.isfinite(total.data):
                ref = f" last good checkpoint: {last_good}" if last_good else ""
                raise NumericError(f"non-finite loss at step {step};{ref}")
            nm.backward(total)
            _apply_gradients(trainable, opt, lr_t, cfg)
            ep_sums += np.array([xent.data, kl.data, total.data], dtype=np.float64) * len(sel)
            ep_correct += int((np.argmax(logits.data, axis=-1) == train_y[sel]).sum())
        state.step = step
        wall = time.perf_counter() - t0 if record_timing else 0.0
        ep_sums /= n
        metrics.append(_metric_record(epoch, "train", ep_sums[0], ep_sums[1], ep_sums[2],
                                      ep_correct / n, lr_t, wall))
        vx, vk, vt, vacc = _evaluate_split(model, val_x, val_y, cfg.batch_size, beta, val_frozen)
        metrics.append(_metric_record(epoch, "val", vx, vk, vt, vacc, lr_t, 0.0))
        if (vacc > best["accuracy"]
                or (vacc == best["accuracy"] and vt < best["loss"])):
            best.update(accuracy=vacc, loss=vt, epoch=epoch)
            if out_path is not None:
                save_checkpoint(state, out_path / "best.ckpt")
                best["path"] = str(out_path / "best.ckpt")
            else:
                best["tensors"] = {name: t.data.copy() for name, t in model.named_tensors()}
        if out_path is not None:
            last_good = str(out_path / "best.ckpt") if "path" in best else None

    if not check_frozen_invariant(model, frozen_before):
        raise NumericError("frozen backbone tensor changed during prompt tuning")
    if out_path is not None:
        save_checkpoint(state, out_path / "final.ckpt")
        with open(out_path / "metrics.jsonl", "w") as f:
            for rec in metrics:
                f.write(json.dumps(rec) + "\n")
    return TrainResult(final=state, best=best, metrics=metrics)


def check_frozen_invariant(model: PromptModel, fingerprint: dict) -> bool:
    return _frozen_tensor_fingerprint(model) == fingerprint


# --------------------------------------------------------------------------
# backbone pretraining (rotation pretext)
# --------------------------------------------------------------------------

def pretrain_backbone(vit: ViTConfig, data: dict, cfg: TrainConfig) -> BackboneParams:
    """Train every backbone tensor (no prompts) on the pretext labels, then
    freeze. All prompt methods share the resulting checkpoint."""
    dtype = dtype_for(cfg.precision)
    backbone = init_backbone(vit, RngState(cfg.seed).derive("pretrain-init"), dtype=dtype)
    backbone.unfreeze_all()
    train_x, train_y = data["train"]
    train_x = np.asarray(train_x, dtype=dtype)
    n = len(train_y)
    steps_per_epoch = max((n + cfg.batch_size - 1) // cfg.batch_size, 1)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    shuffle_rng = RngState(cfg.seed).derive("pretrain-shuffle")
    opt = OptimizerState()
    named = dict(backbone.named_tensors())
    step = 0
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for sel in _batches(n, cfg.batch_size, order):
            step += 1
            lr_t = lr_schedule(step, total_steps, warmup_steps, cfg.lr)
            e0 = embed_patches(train_x[sel], backbone, vit)
            logits = forward_plain(e0, backbone, vit)
            total, _, _ = loss(logits, train_y[sel], None, None, 0.0)
            if not np.isfinite(total.data):
                raise NumericError(f"non-finite pretraining loss at step {step}")
            nm.backward(total)
            _apply_gradients(named, opt, lr_t, cfg)
    backbone.freeze()
    return backbone
