"""Prediction strategies for models with stochastic instance prompts.

Three ways to deal with sampling noise at test time: average softmax
probabilities over R independent rounds; draw the noise once from a recorded
seed and reuse it for every image; or use a generator variant that emits
prompt tokens deterministically. With no instance tokens all three collapse
to the same single forward pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModeMismatchError
from .numerics import RngState
from .numerics.rng import gaussian_block
from .prompt_engine import FrozenForward
from .training import PromptModel

STRATEGIES = ("multi_round", "fixed_sampling", "direct")


@dataclass(frozen=True)
class InferenceConfig:
    strategy: str = "multi_round"
    rounds: int = 5
    noise_seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy '{self.strategy}' (choose from {STRATEGIES})")
        if self.rounds < 1:
            raise ConfigError(f"rounds R={self.rounds} must be >= 1")


def _check_probabilistic(model: PromptModel, strategy: str):
    lam = model.pcfg.instance_tokens
    if lam == 0:
        return  # no stochastic path; every strategy degenerates to one forward
    if strategy == "direct":
        if model.pcfg.mode != "direct_generation":
            raise ModeMismatchError(
                "direct prediction needs a checkpoint trained in direct_generation mode"
            )
    elif model.pcfg.mode == "direct_generation":
        raise ModeMismatchError(
            f"{strategy} prediction needs a probabilistic checkpoint, got direct_generation"
        )


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _forward_probs(model: PromptModel, images: np.ndarray, frozen=None) -> np.ndarray:
    logits, _, _ = model.forward(images, rng=None, frozen=frozen)
    return _softmax_np(logits.data)


def _batch_noise(seeds: np.ndarray, counter_start: int, lam: int, d: int, dtype) -> np.ndarray:
    """Per-image noise blocks (B, lam, d); image b reads its own stream at
    counter_start, so rounds at offsets r*lam*d partition exactly."""
    z = gaussian_block(seeds, counter_start, lam * d, dtype=dtype)
    return z.reshape(len(seeds), lam, d)


def _image_seeds(base: RngState, indices) -> np.ndarray:
    return np.array([base.derive(f"img.{int(i)}").seed for i in indices], dtype=np.uint64)


def _as_image_batch(image):
    arr = np.asarray(image)
    if arr.ndim == 3:
        return arr[None], True
    return arr, False


def predict_multi_round(image, model: PromptModel, rounds: int, rng: RngState) -> np.ndarray:
    """Average class probabilities over R stochastic forwards.

    Noise streams are keyed by position in the batch: round r of image b
    reads the stream at counter offset (b * R + r) * lam * d, so no two
    (image, round) pairs share noise and image b matches image b alone at
    counter offset b * R * lam * d up to float rounding. Averaging is in
    probability space; if every round produced identical probabilities the
    average is returned bitwise-equal to a single round.
    """
    if rounds < 1:
        raise ConfigError(f"rounds R={rounds} must be >= 1")
    _check_probabilistic(model, "multi_round")
    lam, d = model.pcfg.instance_tokens, model.vit.embed_dim
    images, single = _as_image_batch(image)
    if lam == 0:
        probs = _forward_probs(model, images)
        return probs[0] if single else probs
    dtype = model.backbone.patch_w.data.dtype
    z = rng.clone().gaussian((images.shape[0], rounds, lam, d), dtype=dtype)
    per_round = [_forward_probs(model, images, FrozenForward(noise=z[:, r]))
                 for r in range(rounds)]
    first = per_round[0]
    if all(np.array_equal(pr, first) for pr in per_round[1:]):
        probs = first
    else:
        probs = np.mean(np.stack(per_round, axis=0), axis=0)
    return probs[0] if single else probs


def predict_fixed_sampling(image, model: PromptModel, noise_seed: int) -> np.ndarray:
    """One deterministic forward using noise drawn once from the recorded
    seed and shared by every image; prompts still vary per image through the
    learned per-image statistics."""
    _check_probabilistic(model, "fixed_sampling")
    lam, d = model.pcfg.instance_tokens, model.vit.embed_dim
    images, single = _as_image_batch(image)
    frozen = None
    if lam > 0:
        dtype = model.backbone.patch_w.data.dtype
        z = RngState(noise_seed).gaussian((lam, d), dtype=dtype)
        frozen = FrozenForward(noise=z)
    probs = _forward_probs(model, images, frozen)
    return probs[0] if single else probs


def predict_direct(image, model: PromptModel) -> np.ndarray:
    """Deterministic forward through the direct generator (no sampling)."""
    _check_probabilistic(model, "direct")
    images, single = _as_image_batch(image)
    probs = _forward_probs(model, images)
    return probs[0] if single else probs


def evaluate_dataset(model: PromptModel, images, labels, cfg: InferenceConfig,
                     batch_size: int = 64):
    """Whole-split evaluation; returns (summary dict, per-image records).

    multi_round derives one noise stream per image index from the configured
    seed, so results are independent of batch size and evaluation order.
    """
    images = np.asarray(images, dtype=model.backbone.patch_w.data.dtype)
    labels = np.asarray(labels)
    n = len(labels)
    lam, d = model.pcfg.instance_tokens, model.vit.embed_dim
    base = RngState(cfg.noise_seed)
    fixed_z = None
    if cfg.strategy == "fixed_sampling" and lam > 0:
        fixed_z = RngState(cfg.noise_seed).gaussian((lam, d), dtype=images.dtype)
    _check_probabilistic(model, cfg.strategy)

    records = []
    correct = 0
    for start in range(0, n, batch_size):
        sel = np.arange(start, min(start + batch_size, n))
        batch = images[sel]
        if cfg.strategy == "multi_round" and lam > 0:
            seeds = _image_seeds(base, sel)
            per_round = []
            for r in range(cfg.rounds):
                z = _batch_noise(seeds, r * lam * d, lam, d, images.dtype)
                per_round.append(_forward_probs(model, batch, FrozenForward(noise=z)))
            first = per_round[0]
            if all(np.array_equal(pr, first) for pr in per_round[1:]):
                probs = first
            else:
                probs = np.mean(np.stack(per_round, axis=0), axis=0)
        elif cfg.strategy == "fixed_sampling" and fixed_z is not None:
            probs = _forward_probs(model, batch, FrozenForward(noise=fixed_z))
        else:
            probs = _forward_probs(model, batch)
        pred = np.argmax(probs, axis=-1)
        correct += int((pred == labels[sel]).sum())
        for i, idx in enumerate(sel):
            records.append({
                "image": int(idx),
                "strategy": cfg.strategy,
                "probabilities": [float(v) for v in probs[i]],
                "argmax": int(pred[i]),
            })
    summary = {
        "strategy": cfg.strategy,
        "R": cfg.rounds if cfg.strategy == "multi_round" else 1,
        "accuracy": correct / max(n, 1),
        "n": n,
    }
    return summary, records
