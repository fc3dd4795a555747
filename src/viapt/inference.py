"""Prediction for models with stochastic instance prompts.

One core, `predict_probs(model, images, noise)`, runs every prediction
forward: a no-grad forward, the softmax, and the average over rounds.
`noise` is None (a direct-generation model, or one with no instance tokens),
a (lambda, d) block shared by every image, a (B, lambda, d) block per image,
or an (R, B, lambda, d) stack whose R rounds are averaged in probability
space.

`evaluate_dataset` picks the noise for each strategy: multi-round averaging
draws R rounds per image; fixed sampling draws one block once from a recorded
seed and reuses it for every image; the direct strategy needs none. With no
instance tokens all three collapse to the same single forward.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModeMismatchError
from .numerics import RngState, no_grad
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


def predict_probs(model: PromptModel, images: np.ndarray, noise=None) -> np.ndarray:
    """Class probabilities (B, classes) for a batch of images (B, 1, H, W).

    noise is None, a (lambda, d) block shared by every image, a (B, lambda, d)
    block per image, or an (R, B, lambda, d) stack. A stack runs one B-row
    forward per round and averages the rounds' probabilities; if every round
    produced identical probabilities the result is bitwise-equal to a single
    round.
    """
    rounds = noise if np.ndim(noise) == 4 else [noise]
    per_round = []
    for z in rounds:
        frozen = None if z is None else FrozenForward(noise=z)
        with no_grad():
            logits, _, _ = model.forward(images, rng=None, frozen=frozen)
        per_round.append(_softmax_np(logits.data))
    first = per_round[0]
    if all(np.array_equal(pr, first) for pr in per_round[1:]):
        return first
    return np.mean(np.stack(per_round, axis=0), axis=0)


def evaluate_dataset(model: PromptModel, images, labels, cfg: InferenceConfig,
                     batch_size: int = 64):
    """Whole-split evaluation; returns (summary dict, per-image records).

    multi_round derives one noise stream per image from the configured seed
    and the image's position in the split, and round r reads that stream at
    counter offset r * lambda * d. Batch size therefore changes results only
    by float rounding (about 1e-7 in f32), but reordering the split hands
    each image different noise and changes its multi_round probabilities.
    fixed_sampling and direct depend on neither beyond rounding.
    """
    _check_probabilistic(model, cfg.strategy)
    images = np.asarray(images, dtype=model.backbone.patch_w.data.dtype)
    labels = np.asarray(labels)
    n = len(labels)
    lam, d = model.pcfg.instance_tokens, model.vit.embed_dim
    sampled = model.pcfg.probabilistic  # direct generation and lambda = 0 take no noise
    base = RngState(cfg.noise_seed)
    noise = None
    if sampled and cfg.strategy == "fixed_sampling":
        noise = RngState(cfg.noise_seed).gaussian((lam, d), dtype=images.dtype)

    records = []
    correct = 0
    for start in range(0, n, batch_size):
        sel = np.arange(start, min(start + batch_size, n))
        if sampled and cfg.strategy == "multi_round":
            seeds = [base.derive(f"img.{i}").seed for i in sel]
            z = gaussian_block(seeds, 0, cfg.rounds * lam * d, dtype=images.dtype)
            noise = z.reshape(len(sel), cfg.rounds, lam, d).swapaxes(0, 1)
        probs = predict_probs(model, images[sel], noise)
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
