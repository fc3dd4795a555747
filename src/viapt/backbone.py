"""Toy vision transformer with pluggable prompt-injection forward rules.

Pre-norm attention blocks over the token layout [class, prompts, image].
Three forward rules are exposed: shallow prompting (prompts only at layer 1,
outputs propagate), deep prompting (fresh prompts every layer, propagated
prompt outputs discarded), and a plain no-prompt forward used for
pretraining. Every forward takes a batch: images (B, C, H, W), tokens
(B, k, d). Backbone weights are frozen during prompt tuning; only the
classification head trains.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import numerics as nm
from .errors import ConfigError, DimensionError
from .numerics import RngState, Tensor


@dataclass(frozen=True)
class ViTConfig:
    image_side: int = 16
    patch_side: int = 4
    embed_dim: int = 48
    layers: int = 4
    heads: int = 4
    mlp_ratio: int = 4
    classes: int = 5

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name}={getattr(self, f.name)} must be >= 1")
        if self.image_side % self.patch_side != 0:
            raise ConfigError(
                f"image side {self.image_side} not divisible by patch side {self.patch_side}"
            )
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed dim {self.embed_dim} not divisible by {self.heads} heads")

    @property
    def tokens(self) -> int:
        """Image token count k."""
        return (self.image_side // self.patch_side) ** 2

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads


@dataclass
class TokenSequence:
    """Per-layer (class token, prompt block, image block) triple, all width d."""

    x: Tensor        # (B, 1, d)
    prompts: Tensor  # (B, p, d)
    image: Tensor    # (B, k, d)
    layer_index: int = 0


@dataclass
class LayerParams:
    ln1_g: Tensor
    ln1_b: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def tensors(self):
        return [
            ("ln1.g", self.ln1_g), ("ln1.b", self.ln1_b),
            ("attn.wq", self.wq), ("attn.bq", self.bq),
            ("attn.wk", self.wk), ("attn.bk", self.bk),
            ("attn.wv", self.wv), ("attn.bv", self.bv),
            ("attn.wo", self.wo), ("attn.bo", self.bo),
            ("ln2.g", self.ln2_g), ("ln2.b", self.ln2_b),
            ("mlp.w1", self.w1), ("mlp.b1", self.b1),
            ("mlp.w2", self.w2), ("mlp.b2", self.b2),
        ]


@dataclass
class BackboneParams:
    patch_w: Tensor
    patch_b: Tensor
    cls_token: Tensor
    layers: list[LayerParams]
    head_w: Tensor
    head_b: Tensor
    pos_encoding: np.ndarray = field(repr=False, default=None)

    def named_tensors(self):
        items = [
            ("backbone.patch.w", self.patch_w),
            ("backbone.patch.b", self.patch_b),
            ("backbone.cls", self.cls_token),
        ]
        for i, lp in enumerate(self.layers):
            items.extend((f"backbone.layer{i}.{n}", t) for n, t in lp.tensors())
        items.append(("head.w", self.head_w))
        items.append(("head.b", self.head_b))
        return items

    def freeze(self):
        """Frozen-backbone mode: only the head stays trainable."""
        for name, t in self.named_tensors():
            t.trainable = name.startswith("head.")


def sinusoidal_position_encoding(k: int, d: int, dtype=np.float32) -> np.ndarray:
    """Fixed sin/cos encoding over image-token index (prompts and class token
    carry no position encoding)."""
    pos = np.arange(k, dtype=np.float64)[:, None]
    i = np.arange(d // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.zeros((k, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d - d // 2])
    return pe.astype(dtype)


def init_uniform(bound):
    """Init rule: U(-bound, bound) from the stream derived from the tensor's name."""
    return lambda rng, name, shape, dtype: rng.derive(name).uniform(shape, -bound, bound,
                                                                     dtype=dtype)


def init_zeros(rng, name, shape, dtype):
    return np.zeros(shape, dtype=dtype)


def init_ones(rng, name, shape, dtype):
    return np.ones(shape, dtype=dtype)


def random_fill(rng: RngState, dtype=np.float32):
    """fill(name, shape, init) drawing each tensor by its init rule. Every
    builder takes its values from a fill, so each name and shape is declared
    once; training.from_arrays passes one that reads a name->array map."""
    return lambda name, shape, init: init(rng, name, shape, dtype)


def param(fill, name: str, shape: tuple, init) -> Tensor:
    return Tensor(fill(name, shape, init), trainable=True, name=name)


def _head(fill, d: int, classes: int):
    return (param(fill, "head.w", (d, classes), init_uniform(1.0 / np.sqrt(d))),
            param(fill, "head.b", (classes,), init_zeros))


def _layer(fill, pre: str, d: int, hidden: int) -> LayerParams:
    def p(name, shape, init):
        return param(fill, f"{pre}.{name}", shape, init)
    fan_in_d = init_uniform(1.0 / np.sqrt(d))
    return LayerParams(
        ln1_g=p("ln1.g", (d,), init_ones),
        ln1_b=p("ln1.b", (d,), init_zeros),
        wq=p("attn.wq", (d, d), fan_in_d),
        bq=p("attn.bq", (d,), init_zeros),
        wk=p("attn.wk", (d, d), fan_in_d),
        bk=p("attn.bk", (d,), init_zeros),
        wv=p("attn.wv", (d, d), fan_in_d),
        bv=p("attn.bv", (d,), init_zeros),
        wo=p("attn.wo", (d, d), fan_in_d),
        bo=p("attn.bo", (d,), init_zeros),
        ln2_g=p("ln2.g", (d,), init_ones),
        ln2_b=p("ln2.b", (d,), init_zeros),
        w1=p("mlp.w1", (d, hidden), fan_in_d),
        b1=p("mlp.b1", (hidden,), init_zeros),
        w2=p("mlp.w2", (hidden, d), init_uniform(1.0 / np.sqrt(hidden))),
        b2=p("mlp.b2", (d,), init_zeros),
    )


def init_backbone(cfg: ViTConfig, rng: RngState | None, dtype=np.float32,
                  fill=None) -> BackboneParams:
    """Fresh backbone drawn from rng (or taken from fill), all tensors
    trainable (pretraining mode); call .freeze() for the prompt-tuning phase."""
    fill = fill or random_fill(rng, dtype)
    d = cfg.embed_dim
    patch_dim = cfg.patch_side * cfg.patch_side
    head_w, head_b = _head(fill, d, cfg.classes)
    return BackboneParams(
        patch_w=param(fill, "backbone.patch.w", (patch_dim, d),
                      init_uniform(1.0 / np.sqrt(patch_dim))),
        patch_b=param(fill, "backbone.patch.b", (d,), init_zeros),
        cls_token=param(fill, "backbone.cls", (d,), init_zeros),
        layers=[_layer(fill, f"backbone.layer{i}", d, d * cfg.mlp_ratio)
                for i in range(cfg.layers)],
        head_w=head_w,
        head_b=head_b,
        pos_encoding=sinusoidal_position_encoding(cfg.tokens, d, dtype),
    )


def reinit_head(params: BackboneParams, cfg: ViTConfig, rng: RngState, classes: int, dtype=np.float32):
    """Fresh trainable head for a new downstream class count."""
    params.head_w, params.head_b = _head(random_fill(rng, dtype), cfg.embed_dim, classes)


# --------------------------------------------------------------------------
# forward rules
# --------------------------------------------------------------------------

def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def extract_patches(images: np.ndarray, patch_side: int) -> np.ndarray:
    """(B, C, H, W) -> (B, k, C*ps*ps), non-overlapping row-major patches."""
    b, c, h, w = images.shape
    hp, wp = h // patch_side, w // patch_side
    x = images.reshape(b, c, hp, patch_side, wp, patch_side)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    return x.reshape(b, hp * wp, c * patch_side * patch_side)


def embed_patches(images, params: BackboneParams, cfg: ViTConfig) -> Tensor:
    """Patchify images (B, C, H, W), project, and add the fixed position
    encoding; returns (B, k, d)."""
    data = images.data if isinstance(images, Tensor) else np.asarray(images)
    side = cfg.image_side
    if data.ndim != 4 or data.shape[-2:] != (side, side):
        raise DimensionError(f"images shaped {data.shape}, config wants (B, C, {side}, {side})")
    patches = extract_patches(data, cfg.patch_side)
    pe = nm.constant(params.pos_encoding, dtype=params.pos_encoding.dtype)
    return nm.add(nm.add(nm.matmul(Tensor(patches), params.patch_w), params.patch_b), pe)


def layer_forward(seq: TokenSequence, lp: LayerParams, cfg: ViTConfig, return_attn: bool = False):
    """One pre-norm block over the concatenated sequence, re-split afterwards."""
    d = cfg.embed_dim
    for blk in (seq.x, seq.prompts, seq.image):
        if blk.data.shape[-1] != d:
            raise DimensionError(f"token width {blk.data.shape[-1]} != embed dim {d}")
    p = seq.prompts.data.shape[-2]
    k = seq.image.data.shape[-2]
    t = nm.concat([seq.x, seq.prompts, seq.image], axis=-2)
    bsz, total = t.data.shape[0], t.data.shape[1]

    h = nm.layernorm(t, lp.ln1_g, lp.ln1_b)
    def heads(y):
        y = nm.reshape(y, (bsz, total, cfg.heads, cfg.head_dim))
        return nm.transpose(y, (0, 2, 1, 3))
    q = heads(nm.add(nm.matmul(h, lp.wq), lp.bq))
    kk = heads(nm.add(nm.matmul(h, lp.wk), lp.bk))
    v = heads(nm.add(nm.matmul(h, lp.wv), lp.bv))
    scores = nm.scale(nm.matmul(q, nm.swap_last2(kk)), 1.0 / np.sqrt(cfg.head_dim))
    attn = nm.softmax(scores)
    ctx = nm.matmul(attn, v)
    ctx = nm.reshape(nm.transpose(ctx, (0, 2, 1, 3)), (bsz, total, d))
    t = nm.add(t, nm.add(nm.matmul(ctx, lp.wo), lp.bo))

    h2 = nm.layernorm(t, lp.ln2_g, lp.ln2_b)
    mlp = nm.add(nm.matmul(nm.gelu(nm.add(nm.matmul(h2, lp.w1), lp.b1)), lp.w2), lp.b2)
    t = nm.add(t, mlp)

    out = TokenSequence(
        x=nm.narrow(t, -2, 0, 1),
        prompts=nm.narrow(t, -2, 1, p),
        image=nm.narrow(t, -2, 1 + p, k),
        layer_index=seq.layer_index + 1,
    )
    if return_attn:
        return out, attn.data
    return out


def head(x_n, params: BackboneParams) -> Tensor:
    """Trainable linear classification map on the final class tokens (B, d)."""
    return nm.add(nm.matmul(as_tensor(x_n), params.head_w), params.head_b)


def initial_sequence(e0: Tensor, prompt_block: Tensor, params: BackboneParams) -> TokenSequence:
    bsz = e0.data.shape[0]
    x0 = nm.broadcast_batch(nm.reshape(params.cls_token, (1, -1)), bsz)
    return TokenSequence(x=x0, prompts=prompt_block, image=e0, layer_index=0)


def _prep_prompts(block, bsz: int, dtype) -> Tensor:
    """A shared (p, d) block is broadcast over the batch; (B, p, d) passes."""
    t = block if isinstance(block, Tensor) else Tensor(np.asarray(block, dtype=dtype))
    if t.data.ndim == 2:
        return nm.broadcast_batch(t, bsz)
    return t


def forward_vpt_shallow(e0, prompts_p0, params: BackboneParams, cfg: ViTConfig) -> Tensor:
    """Prompts inserted only at layer 1; their outputs propagate unchanged
    through all later layers. Returns logits (B, classes)."""
    return forward_vpt_deep(e0, [prompts_p0] + [None] * (cfg.layers - 1), params, cfg)


def forward_vpt_deep(e0, prompts_per_layer, params: BackboneParams, cfg: ViTConfig) -> Tensor:
    """Fresh prompts at every layer; propagated prompt outputs are discarded.
    A None block past the first keeps the propagated outputs instead."""
    if len(prompts_per_layer) != cfg.layers:
        raise ConfigError(f"need {cfg.layers} prompt blocks, got {len(prompts_per_layer)}")
    e0 = as_tensor(e0)
    if e0.data.ndim != 3:
        raise DimensionError(f"image tokens shaped {e0.data.shape}, want (B, k, d)")
    bsz = e0.data.shape[0]
    seq = initial_sequence(e0, _prep_prompts(prompts_per_layer[0], bsz, e0.data.dtype), params)
    for i, (block, lp) in enumerate(zip(prompts_per_layer, params.layers)):
        if i > 0 and block is not None:
            seq.prompts = _prep_prompts(block, bsz, e0.data.dtype)
        seq = layer_forward(seq, lp, cfg)
    return head(nm.reshape(seq.x, (bsz, -1)), params)


def forward_plain(e0, params: BackboneParams, cfg: ViTConfig) -> Tensor:
    """No-prompt forward (p = 0), used for backbone pretraining."""
    e0 = as_tensor(e0)
    empty = np.zeros((e0.data.shape[0], 0, cfg.embed_dim), dtype=e0.data.dtype)
    return forward_vpt_shallow(e0, empty, params, cfg)
