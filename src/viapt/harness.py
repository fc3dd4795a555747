"""Experiment harness: synthetic datasets, run configuration, commands.

Datasets are generated deterministically from their spec (identical spec,
identical bytes). class_template is solvable with dataset-level prompts
alone; instance_shift composes each image with a per-instance intensity
transform whose gain also shifts the label, so per-instance conditioning
carries real signal; pretext_rotation provides 4-way rotation labels for
backbone pretraining.
"""
from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .backbone import ViTConfig, init_backbone
from .errors import ConfigError, FormatError
from .inference import InferenceConfig, evaluate_dataset
from .numerics import RngState, backward, zero_grads
from .prompt_engine import FrozenForward, PromptConfig, backbone_parameter_count, count_parameters
from .training import (
    TrainConfig,
    TrainResult,
    actual_trainable_count,
    build_model,
    from_arrays,
    load_backbone,
    load_checkpoint,
    loss,
    pretrain_backbone,
    save_backbone,
    train,
    write_atomic,
)

DATA_MAGIC = b"VIADATA\x01"
DATASET_VARIANTS = ("class_template", "instance_shift", "pretext_rotation")
SWEEP_COLUMNS = ("m", "lambda", "accuracy_mean", "accuracy_std", "trainable_params", "ratio")
EXPERIMENT_SEEDS = (1, 2, 3, 4, 5)

# instance_shift gain bands; the gap around 1.0 keeps the label rule clean
_GAIN_LOW = (0.55, 0.90)
_GAIN_HIGH = (1.10, 1.45)


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    variant: str = "instance_shift"
    classes: int = 5
    train_samples: int = 1000
    image_side: int = 16
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.variant not in DATASET_VARIANTS:
            raise ConfigError(f"unknown dataset variant '{self.variant}'")
        if self.variant == "pretext_rotation" and self.classes != 4:
            raise ConfigError("pretext_rotation is a 4-way task; set classes=4")
        if self.classes < 2 or self.train_samples < 1 or self.image_side < 1:
            raise ConfigError("need at least 2 classes, 1 training sample and 1 pixel a side")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"dataset seed {self.seed} outside [0, 2**64)")


def _templates(spec: SyntheticDatasetSpec, count: int) -> np.ndarray:
    rng = RngState(spec.seed).derive("templates")
    return rng.uniform((count, spec.image_side, spec.image_side), -1.0, 1.0, dtype=np.float32)


def _gen_split(spec: SyntheticDatasetSpec, split: str, n: int):
    rng = RngState(spec.seed).derive(f"split.{split}")
    side, c = spec.image_side, spec.classes
    if spec.variant == "pretext_rotation":
        pool = _templates(spec, 8)
        base_idx = np.floor(rng.uniform((n,), 0, len(pool), dtype=np.float64)).astype(int)
        rot = np.floor(rng.uniform((n,), 0, 4, dtype=np.float64)).astype(int)
        noise = rng.gaussian((n, side, side)) * spec.noise
        images = np.empty((n, 1, side, side), dtype=np.float32)
        for i in range(n):
            images[i, 0] = np.rot90(pool[base_idx[i]], rot[i])
        images[:, 0] += noise
        return images, rot.astype(np.uint16)

    templates = _templates(spec, c)
    base = np.floor(rng.uniform((n,), 0, c, dtype=np.float64)).astype(int)
    noise = rng.gaussian((n, side, side)) * spec.noise
    if spec.variant == "class_template":
        images = templates[base][:, None, :, :] + noise[:, None, :, :]
        return images.astype(np.float32), base.astype(np.uint16)

    # instance_shift: gain band picks the label shift, bias is a nuisance
    coin = rng.uniform((n,), 0, 1, dtype=np.float64) < 0.5
    u = rng.uniform((n,), 0, 1, dtype=np.float64)
    gain = np.where(coin, _GAIN_LOW[0] + (_GAIN_LOW[1] - _GAIN_LOW[0]) * u,
                    _GAIN_HIGH[0] + (_GAIN_HIGH[1] - _GAIN_HIGH[0]) * u).astype(np.float32)
    bias = rng.uniform((n,), -0.3, 0.3)
    labels = (base + (gain > 1.0)) % c
    images = gain[:, None, None, None] * templates[base][:, None, :, :]
    images += bias[:, None, None, None] + noise[:, None, :, :]
    return images.astype(np.float32), labels.astype(np.uint16)


def gen_dataset(spec: SyntheticDatasetSpec) -> dict:
    """Splits {train, val, test} -> (images (n,1,s,s) float32, labels uint16).
    Split sizes follow the fixed 60/20/20 ratio (val = test = train // 3)."""
    n_train = spec.train_samples
    n_eval = max(spec.train_samples // 3, 1)
    return {
        "train": _gen_split(spec, "train", n_train),
        "val": _gen_split(spec, "val", n_eval),
        "test": _gen_split(spec, "test", n_eval),
    }


# --------------------------------------------------------------------------
# dataset files
# --------------------------------------------------------------------------

def save_dataset_split(path, images: np.ndarray, labels: np.ndarray, classes: int) -> None:
    n, _, side, _ = images.shape
    buf = bytearray()
    buf += DATA_MAGIC
    buf += struct.pack("<III", n, side, classes)
    buf += images.astype("<f4", copy=False).tobytes()
    buf += labels.astype("<u2", copy=False).tobytes()
    write_atomic(path, bytes(buf))


def load_dataset_split(path):
    blob = Path(path).read_bytes()
    if len(blob) < len(DATA_MAGIC) + 12:
        raise FormatError("truncated dataset file while reading header")
    if blob[: len(DATA_MAGIC)] != DATA_MAGIC:
        raise FormatError("bad magic; not a dataset file")
    n, side, classes = struct.unpack("<III", blob[len(DATA_MAGIC) : len(DATA_MAGIC) + 12])
    img_bytes = n * side * side * 4
    offset = len(DATA_MAGIC) + 12
    if len(blob) != offset + img_bytes + n * 2:
        raise FormatError(
            f"dataset size mismatch: header promises {offset + img_bytes + n * 2} bytes, "
            f"file has {len(blob)}"
        )
    images = np.frombuffer(blob, dtype="<f4", count=n * side * side, offset=offset)
    labels = np.frombuffer(blob, dtype="<u2", count=n, offset=offset + img_bytes)
    if labels.max(initial=0) >= classes:
        raise FormatError(f"label {labels.max()} outside the header's {classes} classes")
    return images.reshape(n, 1, side, side).copy(), labels.copy(), classes


def write_dataset(out_dir, spec: SyntheticDatasetSpec) -> dict:
    """gen + persist all three splits plus the spec snapshot; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    splits = gen_dataset(spec)
    paths = {}
    for name, (images, labels) in splits.items():
        p = out / f"{name}.viadata"
        save_dataset_split(p, images, labels, spec.classes)
        paths[name] = str(p)
    meta = {"spec": asdict(spec)}
    if spec.variant == "instance_shift":
        meta["difficulty"] = difficulty_certificate(spec, splits["test"])
    (out / "dataset.json").write_text(json.dumps(meta, sort_keys=True, indent=1))
    return paths


def load_dataset_dir(path) -> dict:
    out = Path(path)
    splits = {}
    for name in ("train", "val", "test"):
        images, labels, _ = load_dataset_split(out / f"{name}.viadata")
        splits[name] = (images, labels)
    return splits


# --------------------------------------------------------------------------
# brute-force reference classifiers (dataset difficulty certificate)
# --------------------------------------------------------------------------

def template_oracle_predict(images: np.ndarray, spec: SyntheticDatasetSpec) -> np.ndarray:
    """Nearest-template classifier; ignores the per-instance transform."""
    templates = _templates(spec, spec.classes)
    flat = images[:, 0].reshape(len(images), -1)
    tf = templates.reshape(spec.classes, -1)
    d2 = ((flat[:, None, :] - tf[None, :, :]) ** 2).sum(axis=-1)
    return np.argmin(d2, axis=-1).astype(np.uint16)


def instance_aware_oracle_predict(images: np.ndarray, spec: SyntheticDatasetSpec) -> np.ndarray:
    """Fits (gain, bias) per template by least squares, picks the best-fitting
    template, then applies the gain-dependent label rule."""
    templates = _templates(spec, spec.classes)
    flat = images[:, 0].reshape(len(images), -1).astype(np.float64)
    tf = templates.reshape(spec.classes, -1).astype(np.float64)
    npix = flat.shape[1]
    t_mean = tf.mean(axis=1)
    t_var = ((tf - t_mean[:, None]) ** 2).sum(axis=1)
    x_mean = flat.mean(axis=1)
    # closed-form simple regression x ~= a * t + b per (image, template)
    cov = flat @ tf.T / npix - np.outer(x_mean, t_mean)
    a = cov * npix / t_var[None, :]
    b = x_mean[:, None] - a * t_mean[None, :]
    fitted = a[:, :, None] * tf[None, :, :] + b[:, :, None]
    resid = ((flat[:, None, :] - fitted) ** 2).sum(axis=-1)
    best = np.argmin(resid, axis=-1)
    gain = a[np.arange(len(flat)), best]
    if spec.variant == "instance_shift":
        return ((best + (gain > 1.0)) % spec.classes).astype(np.uint16)
    return best.astype(np.uint16)


def difficulty_certificate(spec: SyntheticDatasetSpec, split) -> dict:
    images, labels = split
    t_acc = float((template_oracle_predict(images, spec) == labels).mean())
    i_acc = float((instance_aware_oracle_predict(images, spec) == labels).mean())
    return {"template_oracle_accuracy": t_acc,
            "instance_oracle_accuracy": i_acc,
            "gap": i_acc - t_acc}


# --------------------------------------------------------------------------
# run configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    vit: ViTConfig = field(default_factory=ViTConfig)
    prompt: PromptConfig = field(default_factory=PromptConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    infer: InferenceConfig = field(default_factory=InferenceConfig)
    dataset: SyntheticDatasetSpec = field(default_factory=SyntheticDatasetSpec)
    out_dir: str = "runs/out"

    def to_flat(self) -> dict:
        return {key: getattr(getattr(self, section) if section else self, attr)
                for key, (section, attr, _) in CONFIG_SCHEMA.items()}

    def snapshot(self) -> str:
        return json.dumps(self.to_flat(), sort_keys=True, indent=1)


# A flat key is its field's name, except for these six, renamed so that keys
# from different sections cannot clash or be mistaken for one another.
_RENAMED = {
    ("prompt", "tokens"): "prompt_tokens",
    ("dataset", "variant"): "dataset_variant",
    ("dataset", "classes"): "dataset_classes",
    ("dataset", "image_side"): "dataset_side",
    ("dataset", "noise"): "dataset_noise",
    ("dataset", "seed"): "dataset_seed",
}


def _config_schema() -> dict:
    """Flat key -> (section, field, type) for every field of RunConfig's five
    config sections, and for out_dir (section None)."""
    schema = {}
    for name, kind in get_type_hints(RunConfig).items():
        if not is_dataclass(kind):
            schema[name] = (None, name, kind)
            continue
        for attr, attr_kind in get_type_hints(kind).items():
            schema[_RENAMED.get((name, attr), attr)] = (name, attr, attr_kind)
    return schema


CONFIG_SCHEMA = _config_schema()


def _coerce(key: str, value: str):
    """A file value parsed as its field's type; 'none' or an empty value gives
    None where the field allows it."""
    kind = CONFIG_SCHEMA[key][2]
    if type(None) in get_args(kind) and value.lower() in ("none", ""):
        return None
    parse = next(t for t in get_args(kind) or (kind,) if t is not type(None))
    try:
        parsed = parse(value)
    except ValueError as e:
        raise ConfigError(f"key '{key}' wants {parse.__name__}, got '{value}'") from e
    if parse is float and not math.isfinite(parsed):
        raise ConfigError(f"key '{key}' wants a finite number, got '{value}'")
    return parsed


def parse_config_file(path) -> dict:
    """Flat key=value text; # comments; unknown keys are errors."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got '{raw.strip()}'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        overrides[key] = _coerce(key, value)
    return overrides


def make_run_config(file_overrides: dict | None = None, cli_overrides: dict | None = None) -> RunConfig:
    """Defaults <- config file <- CLI flags (later wins); unknown keys error."""
    sections = {}  # section -> {field: value}; None holds RunConfig's own fields
    for source in (file_overrides or {}, cli_overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config key '{key}'")
            section, attr, _ = CONFIG_SCHEMA[key]
            sections.setdefault(section, {})[attr] = value
    kinds = get_type_hints(RunConfig)
    return RunConfig(**sections.pop(None, {}),
                     **{name: kinds[name](**values) for name, values in sections.items()})


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_gen_data(cfg: RunConfig) -> dict:
    return write_dataset(cfg.out_dir, cfg.dataset)


def cmd_pretrain_backbone(cfg: RunConfig, out_path=None) -> str:
    """Rotation-pretext pretraining; writes the shared frozen checkpoint."""
    spec = replace(cfg.dataset, variant="pretext_rotation", classes=4)
    vit = replace(cfg.vit, classes=4)
    data = gen_dataset(spec)
    backbone = pretrain_backbone(vit, data, cfg.train)
    out = Path(out_path) if out_path else Path(cfg.out_dir) / "backbone.ckpt"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_backbone(backbone, vit, out, extra_meta={"pretext": asdict(spec)})
    return str(out)


def _resolve_backbone(cfg: RunConfig, backbone_path):
    if backbone_path is None:
        raise ConfigError("a frozen backbone checkpoint is required (pretrain-backbone first)")
    backbone, pre_vit = load_backbone(backbone_path, expect_precision=cfg.train.precision)
    if replace(pre_vit, classes=cfg.vit.classes) != cfg.vit:  # the head is replaced anyway
        raise ConfigError(f"backbone checkpoint geometry {pre_vit} != run geometry {cfg.vit}")
    return backbone


def _clone_backbone(backbone, vit: ViTConfig):
    """Frozen copy of backbone, checked against vit. It keeps the source's head,
    which may be a pretext head of another width: train replaces it."""
    arrays = {name: t.data.copy() for name, t in backbone.named_tensors()}
    clone = from_arrays(arrays, replace(vit, classes=backbone.head_b.data.shape[0]),
                        backbone.patch_w.data.dtype)
    clone.freeze()
    return clone


def cmd_train(cfg: RunConfig, backbone_path, data=None, record_timing=False) -> TrainResult:
    if data is None:
        data = gen_dataset(cfg.dataset)
    backbone = _clone_backbone(_resolve_backbone(cfg, backbone_path), cfg.vit)
    return train(cfg.train, cfg.prompt, data, backbone, cfg.vit, out_dir=cfg.out_dir,
                 record_timing=record_timing)


def cmd_eval(checkpoint_path, data, icfg: InferenceConfig, out_dir=None, split="test"):
    state = load_checkpoint(checkpoint_path)
    images, labels = data[split]
    n_classes = state.model.backbone.head_b.data.shape[0]
    if np.min(labels, initial=0) < 0 or np.max(labels, initial=0) >= n_classes:
        raise ConfigError(f"label outside [0, {n_classes}), the checkpoint's classes")
    summary, records = evaluate_dataset(state.model, images, labels, icfg)
    summary["split"] = split
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
        with open(out / "predictions.jsonl", "w") as f:
            for rec in records:
                f.write(json.dumps(rec) + "\n")
    return summary, records


def _train_cell(cfg: RunConfig, backbone, data, mode, m, lam, seeds):
    """One run per seed: (best-validation accuracies, first seed's model)."""
    pcfg = replace(cfg.prompt, mode=mode, retained_dims=m, instance_tokens=lam)
    accs, trained = [], None
    for seed in seeds:
        res = train(replace(cfg.train, seed=seed), pcfg, data,
                    _clone_backbone(backbone, cfg.vit), cfg.vit)
        accs.append(res.best["accuracy"])
        trained = trained or res.final.model
    return accs, trained


def cmd_sweep_m(cfg: RunConfig, backbone_path, m_list, with_and_without_instance=True,
                seeds=None, data=None):
    """One training run per (m, lambda) cell with a shared frozen backbone.

    Returns (rows, per_seed): rows carry mean/std of best-validation accuracy
    across seeds in the documented CSV schema; per_seed maps (m, lambda) to
    the underlying per-seed accuracy list."""
    seeds = list(seeds) if seeds else [cfg.train.seed]
    if data is None:
        data = gen_dataset(cfg.dataset)
    backbone = _resolve_backbone(cfg, backbone_path)
    d = cfg.vit.embed_dim
    lam_values = [0, cfg.prompt.tokens // 2] if with_and_without_instance else [
        cfg.prompt.resolved(d).instance_tokens
    ]
    rows = []
    per_seed = {}
    for m in m_list:
        if not 0 <= m <= d:
            raise ConfigError(f"sweep m={m} outside [0, {d}]")
        for lam in lam_values:
            accs, trained = _train_cell(cfg, backbone, data, "viapt", m, lam, seeds)
            params = actual_trainable_count(trained)
            per_seed[(m, lam)] = accs
            rows.append({
                "m": m, "lambda": lam,
                "accuracy_mean": float(np.mean(accs)),
                "accuracy_std": float(np.std(accs)),
                "trainable_params": params,
                "ratio": params / backbone_parameter_count(cfg.vit),
            })
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out / "sweep_m.csv", rows)
    return rows, per_seed


def write_sweep_csv(path, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=SWEEP_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow({k: row[k] for k in SWEEP_COLUMNS})


def read_sweep_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != list(SWEEP_COLUMNS):
            raise FormatError(f"sweep csv columns {reader.fieldnames} != {list(SWEEP_COLUMNS)}")
        rows = []
        for rec in reader:
            rows.append({
                "m": int(rec["m"]), "lambda": int(rec["lambda"]),
                "accuracy_mean": float(rec["accuracy_mean"]),
                "accuracy_std": float(rec["accuracy_std"]),
                "trainable_params": int(rec["trainable_params"]),
                "ratio": float(rec["ratio"]),
            })
        return rows


def ablation_cells(cfg: RunConfig) -> dict:
    """The ablation table rows as (mode, m, lambda) cells."""
    d = cfg.vit.embed_dim
    rp = cfg.prompt.resolved(d)
    return {
        "full": ("viapt", rp.retained_dims, rp.instance_tokens),
        "no_pca": ("ablation_no_pca", None, rp.instance_tokens),
        "no_instance": ("ablation_no_instance", rp.retained_dims, 0),
        "no_both": ("ablation_no_pca", None, 0),
        "random_projection": ("ablation_random_projection", rp.retained_dims, rp.instance_tokens),
    }


def cmd_ablate(cfg: RunConfig, backbone_path, data=None, seeds=None) -> list[dict]:
    seeds = list(seeds) if seeds else [cfg.train.seed]
    if data is None:
        data = gen_dataset(cfg.dataset)
    backbone = _resolve_backbone(cfg, backbone_path)
    rows = []
    for variant, (mode, m, lam) in ablation_cells(cfg).items():
        accs, trained = _train_cell(cfg, backbone, data, mode, m, lam, seeds)
        rows.append({
            "variant": variant, "mode": mode,
            "m": trained.pcfg.retained_dims, "lambda": lam,
            "accuracy_mean": float(np.mean(accs)),
            "accuracy_std": float(np.std(accs)),
            "trainable_params": actual_trainable_count(trained),
        })
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "ablation.csv", "w", newline="") as f:
        names = ["variant", "mode", "m", "lambda", "accuracy_mean", "accuracy_std",
                 "trainable_params"]
        w = csv.DictWriter(f, fieldnames=names)
        w.writeheader()
        for row in rows:
            w.writerow(row)
    return rows


def cmd_param_count(vit: ViTConfig, pcfg: PromptConfig, m_list,
                    reference_total: int | None = None) -> dict:
    """Absolute prompt-parameter counts and percentages for each m.

    Percentages are reported against both the architecture-derived backbone
    total and, when given, the published reference total."""
    from .prompt_engine import PUBLISHED_BACKBONE_TOTAL

    ref = reference_total if reference_total is not None else PUBLISHED_BACKBONE_TOTAL
    computed_total = backbone_parameter_count(vit)
    rows = []
    for m in m_list:
        domain = count_parameters(
            replace(pcfg, mode="ablation_no_instance", retained_dims=m, instance_tokens=0), vit)
        ours = count_parameters(replace(pcfg, mode="viapt", retained_dims=m), vit)
        rows.append({
            "m": m,
            "domain_prompt_params": domain["prompt_params"],
            "ours_prompt_params": ours["prompt_params"],
            "domain_pct_of_reference": round(100.0 * domain["prompt_params"] / ref, 3),
            "ours_pct_of_reference": round(100.0 * ours["prompt_params"] / ref, 3),
            "note": ours["note"],
        })
    shallow = count_parameters(replace(pcfg, mode="vpt_shallow"), vit)
    deep = count_parameters(replace(pcfg, mode="vpt_deep"), vit)
    return {
        "rows": rows,
        "reference_total": ref,
        "computed_backbone_total": computed_total,
        "prompt_count_comparison": {
            "vpt_shallow": shallow["prompt_params"],
            "vpt_deep": deep["prompt_params"],
        },
    }


def format_param_table(report: dict) -> str:
    lines = [f"{'m':>6}  {'domain-only':>12}  {'ours':>12}  {'domain %':>9}  {'ours %':>9}"]
    for row in report["rows"]:
        lines.append(
            f"{row['m']:>6}  {row['domain_prompt_params']:>12}  {row['ours_prompt_params']:>12}"
            f"  {row['domain_pct_of_reference']:>9.3f}  {row['ours_pct_of_reference']:>9.3f}"
        )
        if row["note"]:
            lines.append(f"        note: {row['note']}")
    cmpx = report["prompt_count_comparison"]
    lines.append(f"reference total: {report['reference_total']:,}  "
                 f"(computed from config: {report['computed_backbone_total']:,})")
    lines.append(f"prompt-count comparison: shallow {cmpx['vpt_shallow']:,}  "
                 f"deep {cmpx['vpt_deep']:,}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# gradient check
# --------------------------------------------------------------------------

GRADCHECK_ZERO_FLOOR = 1e-6  # below this, both sides sit in FD roundoff (~1e-11/h)


def cmd_gradcheck(cfg: RunConfig, batch: int = 4, h: float = 1e-5,
                  threshold: float = 1e-4) -> dict:
    """Central finite differences against the tape for every trainable tensor.

    Requires float64. The forward's per-pass constants are fixed once: the
    instance noise is drawn up front, and the PCA statistics are captured at
    the base point. Every perturbed evaluation replays both, since the
    training gradient is defined with those held constant. Entries where
    both the analytic and numeric gradient are below GRADCHECK_ZERO_FLOOR
    count as exact: at that scale the central difference is dominated by
    floating-point cancellation, not signal.
    """
    if cfg.train.precision != "f64":
        raise ConfigError("gradient checking requires precision=f64")
    dtype = np.float64
    vit = cfg.vit
    rcfg = cfg.prompt.resolved(vit.embed_dim)
    backbone = init_backbone(vit, RngState(cfg.train.seed).derive("gradcheck-backbone"),
                             dtype=dtype)
    backbone.freeze()
    model = build_model(vit, rcfg, RngState(cfg.train.seed).derive("init"), backbone,
                        dtype=dtype)
    data_rng = RngState(cfg.train.seed).derive("gradcheck-data")
    images = data_rng.gaussian((batch, 1, vit.image_side, vit.image_side), dtype=dtype)
    labels = np.floor(data_rng.uniform((batch,), 0, vit.classes, dtype=np.float64)).astype(int)

    noise = None
    if rcfg.probabilistic:
        noise = RngState(cfg.train.seed).derive("gradcheck-noise").gaussian(
            (batch, rcfg.instance_tokens, vit.embed_dim), dtype=dtype)
    frozen = FrozenForward(noise=noise)

    def loss_value(capture=None):
        logits, mu, logvar = model.forward(images, rng=None, frozen=frozen, capture=capture)
        total, _, _ = loss(logits, labels, mu, logvar, rcfg.kl_weight)
        return total

    total = loss_value(capture=frozen)  # fills frozen.pca for every replay below
    backward(total)
    report = {"tensors": {}, "max_rel_error": 0.0, "passed": True, "threshold": threshold}
    for name, tensor in model.trainable_named():
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        flat = tensor.data.ravel()
        grad_flat = analytic.ravel()
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_value().data)
            flat[i] = orig - h
            down = float(loss_value().data)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            denom = max(abs(fd), abs(grad_flat[i]))
            rel = 0.0 if denom < GRADCHECK_ZERO_FLOOR else abs(fd - grad_flat[i]) / denom
            worst = max(worst, rel)
        report["tensors"][name] = worst
        report["max_rel_error"] = max(report["max_rel_error"], worst)
    zero_grads(t for _, t in model.named_tensors())
    report["passed"] = report["max_rel_error"] < threshold
    return report
