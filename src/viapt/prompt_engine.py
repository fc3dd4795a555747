"""Instance-aware prompting with subspace propagation across layers.

Layer-1 prompts are split into lambda instance tokens (sampled from a
per-input Gaussian whose mean/std come from a small convolutional encoder,
reparameterization-trick style) and p - lambda learned dataset tokens. For
every later layer, the previous layer's prompt outputs are compressed to
their top-m principal directions and padded back to width d with fresh
learnable values. m = 0 discards everything (deep prompting); m = d
propagates everything (shallow prompting); both endpoints short-circuit the
projection so the equivalences are exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .backbone import (
    BackboneParams,
    ViTConfig,
    as_tensor,
    head,
    init_uniform,
    init_zeros,
    initial_sequence,
    layer_forward,
    param,
    random_fill,
)
from .errors import ConfigError, DimensionError
from .numerics import RngState, Tensor

MODES = (
    "viapt",
    "vpt_shallow",
    "vpt_deep",
    "ablation_no_pca",
    "ablation_no_instance",
    "ablation_random_projection",
    "direct_generation",
)


@dataclass(frozen=True)
class PromptConfig:
    """Prompt hyperparameters: p tokens at layer 1, lambda of them
    instance-generated, m retained dimensions between layers, KL weight."""

    tokens: int = 8                 # p
    instance_tokens: int = 4        # lambda
    retained_dims: int | None = None  # m; None resolves per mode (d//2 default)
    kl_weight: float = 0.01        # beta
    mode: str = "viapt"

    def resolved(self, d: int) -> "PromptConfig":
        """Canonical config for embed dim d; endpoint modes force m and lambda."""
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode '{self.mode}' (choose from {MODES})")
        m, lam = self.retained_dims, self.instance_tokens
        if self.mode == "vpt_shallow":
            m, lam = d, 0
        elif self.mode == "vpt_deep":
            m, lam = 0, 0
        elif self.mode == "ablation_no_instance":
            lam = 0
            m = d // 2 if m is None else m
        elif self.mode == "ablation_no_pca":
            m = d  # previous-layer outputs propagate unchanged; no new components
        elif m is None:
            m = d // 2
        if not 0 <= m <= d:
            raise ConfigError(f"retained dims m={m} outside [0, {d}]")
        if not 0 <= lam <= self.tokens:
            raise ConfigError(f"instance tokens lambda={lam} outside [0, p={self.tokens}]")
        if self.tokens < 0:
            raise ConfigError(f"prompt tokens p={self.tokens} must be non-negative")
        return replace(self, retained_dims=m, instance_tokens=lam)

    @property
    def probabilistic(self) -> bool:
        return self.instance_tokens > 0 and self.mode != "direct_generation"


@dataclass
class DatasetPrompts:
    """Trainable dataset-level tokens: layer-1 block (p - lambda, d) plus one
    (p, d - m) block of new components for each layer beyond the first."""

    dom: Tensor
    new: list[Tensor] = field(default_factory=list)

    def named_tensors(self):
        items = [("prompt.dom", self.dom)]
        items.extend((f"prompt.new.{i + 1}", t) for i, t in enumerate(self.new))
        return items


@dataclass
class GeneratorParams:
    """Two conv layers, global pooling, then parallel linear maps to the
    per-instance mean and log-variance (each width d)."""

    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    mu_w: Tensor
    mu_b: Tensor
    logvar_w: Tensor
    logvar_b: Tensor

    def named_tensors(self):
        return [
            ("generator.conv1.w", self.conv1_w), ("generator.conv1.b", self.conv1_b),
            ("generator.conv2.w", self.conv2_w), ("generator.conv2.b", self.conv2_b),
            ("generator.mu.w", self.mu_w), ("generator.mu.b", self.mu_b),
            ("generator.logvar.w", self.logvar_w), ("generator.logvar.b", self.logvar_b),
        ]


@dataclass
class DirectGeneratorParams:
    """Same conv trunk, but the output map emits lambda prompt tokens
    directly (width lambda*d); no sampling, no KL term."""

    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    out_w: Tensor
    out_b: Tensor
    instance_tokens: int = 0

    def named_tensors(self):
        return [
            ("generator.conv1.w", self.conv1_w), ("generator.conv1.b", self.conv1_b),
            ("generator.conv2.w", self.conv2_w), ("generator.conv2.b", self.conv2_b),
            ("generator.out.w", self.out_w), ("generator.out.b", self.out_b),
        ]


@dataclass
class PcaProjection:
    """Centered top-m projection of a prompt block: token mean, orthonormal
    basis (d, m), projected coordinates (p, m), retained-variance fraction."""

    mean: np.ndarray
    basis: np.ndarray
    coords: Tensor
    retained_variance: float


@dataclass
class FrozenForward:
    """Per-forward constants replayed, e.g. for finite-difference checks or
    fixed-sampling inference: the instance noise, which the caller draws, and
    the per-layer projection stats, which a forward can capture.
    layer1_prompts is capture-only diagnostics."""

    noise: np.ndarray | None = None
    pca: list | None = None
    layer1_prompts: np.ndarray | None = None


# --------------------------------------------------------------------------
# initialization
# --------------------------------------------------------------------------

def init_dataset_prompts(cfg: PromptConfig, vit: ViTConfig, rng: RngState | None,
                         dtype=np.float32, fill=None) -> DatasetPrompts:
    fill = fill or random_fill(rng, dtype)
    cfg = cfg.resolved(vit.embed_dim)
    p, lam, m, d = cfg.tokens, cfg.instance_tokens, cfg.retained_dims, vit.embed_dim
    dom = param(fill, "prompt.dom", (p - lam, d), init_uniform(np.sqrt(6.0 / (d + p))))
    new = []
    if m < d:
        width = d - m
        init = init_uniform(np.sqrt(6.0 / (width + p)))
        new = [param(fill, f"prompt.new.{i}", (p, width), init) for i in range(1, vit.layers)]
    return DatasetPrompts(dom=dom, new=new)


def _trunk(fill, d: int):
    """The shared conv trunk's four tensors, d -> d//2 channels."""
    h = d // 2
    return dict(
        conv1_w=param(fill, "generator.conv1.w", (h, d, 3, 3), init_uniform(1.0 / np.sqrt(d * 9))),
        conv1_b=param(fill, "generator.conv1.b", (h,), init_zeros),
        conv2_w=param(fill, "generator.conv2.w", (h, h, 3, 3), init_uniform(1.0 / np.sqrt(h * 9))),
        conv2_b=param(fill, "generator.conv2.b", (h,), init_zeros),
    )


def init_generator(d: int, rng: RngState | None, dtype=np.float32, fill=None) -> GeneratorParams:
    fill = fill or random_fill(rng, dtype)
    h = d // 2
    init = init_uniform(1.0 / np.sqrt(h))
    return GeneratorParams(
        **_trunk(fill, d),
        mu_w=param(fill, "generator.mu.w", (h, d), init),
        mu_b=param(fill, "generator.mu.b", (d,), init_zeros),
        logvar_w=param(fill, "generator.logvar.w", (h, d), init),
        logvar_b=param(fill, "generator.logvar.b", (d,), init_zeros),
    )


def init_direct_generator(d: int, lam: int, rng: RngState | None, dtype=np.float32,
                          fill=None) -> DirectGeneratorParams:
    fill = fill or random_fill(rng, dtype)
    h = d // 2
    return DirectGeneratorParams(
        **_trunk(fill, d),
        out_w=param(fill, "generator.out.w", (h, lam * d), init_uniform(1.0 / np.sqrt(h))),
        out_b=param(fill, "generator.out.b", (lam * d,), init_zeros),
        instance_tokens=lam,
    )


# --------------------------------------------------------------------------
# instance prompt generation
# --------------------------------------------------------------------------

def _encoder_trunk(e0: Tensor, conv1_w, conv1_b, conv2_w, conv2_b) -> Tensor:
    """Image tokens (B, k, d) as a sqrt(k) grid -> pooled features (B, d//2)."""
    bsz, k, d = e0.data.shape
    side = int(round(np.sqrt(k)))
    if side * side != k:
        raise ConfigError(f"instance prompts need a square token grid, got k={k}")
    grid = nm.transpose(nm.reshape(e0, (bsz, side, side, d)), (0, 3, 1, 2))
    h = nm.gelu(nm.conv2d(grid, conv1_w, conv1_b, stride=1, padding=1))
    h = nm.conv2d(h, conv2_w, conv2_b, stride=1, padding=1)
    return nm.mean_(h, axis=(2, 3))


def encode_statistics(e0: Tensor, g: GeneratorParams):
    """(mu, logvar), each (B, d)."""
    pooled = _encoder_trunk(e0, g.conv1_w, g.conv1_b, g.conv2_w, g.conv2_b)
    mu = nm.add(nm.matmul(pooled, g.mu_w), g.mu_b)
    logvar = nm.add(nm.matmul(pooled, g.logvar_w), g.logvar_b)
    return mu, logvar


def generate_instance_prompts(e0, g: GeneratorParams, lam: int, rng: RngState | None,
                              frozen_noise: np.ndarray | None = None):
    """Sample lambda instance prompt tokens per input.

    p_i = z_i * sigma + mu with z ~ N(0, I); gradients reach g through mu and
    sigma only (z is a constant). Returns (prompts (B, lam, d), mu, logvar).
    frozen_noise is one (lam, d) block shared by every input or a (B, lam, d)
    block per input; any other shape raises DimensionError.
    """
    if lam < 0:
        raise ConfigError(f"lambda={lam} must be non-negative")
    e0_t = as_tensor(e0)
    bsz, _, d = e0_t.data.shape
    mu, logvar = encode_statistics(e0_t, g)
    sigma = nm.exp(nm.scale(logvar, 0.5))
    if frozen_noise is not None:
        z = np.asarray(frozen_noise, dtype=e0_t.data.dtype)
        if z.shape == (lam, d):
            z = np.broadcast_to(z, (bsz, lam, d)).copy()
        elif z.shape != (bsz, lam, d):
            raise DimensionError(f"frozen noise shaped {z.shape}, "
                                 f"want {(lam, d)} or {(bsz, lam, d)}")
    else:
        if rng is None:
            raise ConfigError("instance prompt sampling needs an rng or frozen noise")
        z = rng.gaussian((bsz, lam, d), dtype=e0_t.data.dtype)
    zc = nm.constant(z, dtype=z.dtype)
    prompts = nm.add(nm.mul(zc, nm.reshape(sigma, (bsz, 1, d))),
                     nm.reshape(mu, (bsz, 1, d)))
    return prompts, mu, logvar


def generate_direct_prompts(e0, g: DirectGeneratorParams) -> Tensor:
    """Deterministic variant: the trunk emits lambda tokens (B, lambda, d) directly."""
    e0_t = as_tensor(e0)
    bsz, _, d = e0_t.data.shape
    pooled = _encoder_trunk(e0_t, g.conv1_w, g.conv1_b, g.conv2_w, g.conv2_b)
    flat = nm.add(nm.matmul(pooled, g.out_w), g.out_b)
    return nm.reshape(flat, (bsz, g.instance_tokens, d))


def kl_to_standard_normal(mu, logvar):
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)), summed over the feature
    axis: 0.5 * sum(mu^2 + exp(logvar) - 1 - logvar).

    Accepts (d,) -> scalar or (B, d) -> (B,); differentiable when given Tensors.
    """
    mu_t = as_tensor(mu)
    lv_t = as_tensor(logvar)
    one = nm.constant(1.0, dtype=mu_t.data.dtype)
    inner = nm.add(nm.add(nm.mul(mu_t, mu_t), nm.exp(lv_t)), nm.neg(nm.add(one, lv_t)))
    return nm.scale(nm.sum_(inner, axis=-1), 0.5)


# --------------------------------------------------------------------------
# PCA propagation
# --------------------------------------------------------------------------

def _pca_basis(centered: np.ndarray, m: int):
    """Top-m principal directions of centered prompt blocks (B, p, d).

    One LAPACK SVD per block, so a block's result is independent of its
    batch neighbours. Returns (s, basis, proj): singular values (B, min(p, d))
    in descending order; basis (B, d, m), the leading right singular vectors,
    each signed so its largest-magnitude entry is positive, completed past the
    rank by the rest of the full V; proj, the basis with every column whose
    singular value is at or below s0 * max(p, d) * eps zeroed. A block with a
    non-finite entry comes back as NaN in all three.
    """
    _, p, d = centered.shape
    bad = ~np.isfinite(centered).all(axis=(1, 2))
    if bad.any():
        centered = np.where(bad[:, None, None], 0.0, centered)
    _, s, vh = np.linalg.svd(centered, full_matrices=True)
    rows = vh[:, :m]
    lead = np.take_along_axis(rows, np.argmax(np.abs(rows), axis=-1)[..., None], axis=-1)
    basis = np.swapaxes(rows * np.sign(lead), -1, -2)
    keep = min(m, s.shape[-1])
    live = np.zeros((len(s), m), dtype=bool)
    live[:, :keep] = s[:, :keep] > s[:, :1] * max(p, d) * np.finfo(s.dtype).eps
    proj = np.ascontiguousarray(np.where(live[:, None], basis, 0.0))
    if bad.any():
        s[bad], basis[bad], proj[bad] = np.nan, np.nan, np.nan
    return s, basis, proj


def pca_project(z, m: int) -> PcaProjection:
    """Center a prompt block (p, d) by its token mean and project onto the
    top-m variance directions; the single-block case of _pca_basis.

    The basis and mean are constants for differentiation; gradients flow
    through the coordinate matmul only. Coordinate columns beyond the
    numerical rank are exact zeros; the stored basis is orthonormally
    completed to m columns.
    """
    z_t = as_tensor(z)
    p, d = z_t.data.shape
    if not 1 <= m <= d:
        raise ConfigError(f"retained dims m={m} outside [1, d={d}]")
    if p < 1:
        raise ConfigError("pca_project needs at least one token")
    mean = z_t.data.mean(axis=0)
    centered = z_t.data - mean
    s, basis, proj = (a[0] for a in _pca_basis(centered[None], m))
    coords = nm.matmul(nm.add(z_t, nm.constant(-mean, dtype=mean.dtype)),
                       nm.constant(proj, dtype=proj.dtype))
    total = float((centered * centered).sum())
    rank = int(proj.any(axis=0).sum())
    retained = float((s[:rank] ** 2).sum())
    fraction = 1.0 if total == 0.0 else retained / total
    return PcaProjection(mean=mean, basis=basis, coords=coords, retained_variance=fraction)


def _batched_pca_coords(z_t: Tensor, m: int, basis_override: np.ndarray | None = None,
                        frozen_stats=None, capture: list | None = None) -> Tensor:
    """Per-instance centered projection for a batch (B, p, d) -> (B, p, m).

    basis_override substitutes a fixed (d, m) orthonormal basis for every
    instance (random-projection ablation). frozen_stats replays captured
    (mean, projection) pairs; capture appends them.
    """
    if frozen_stats is not None:
        mean, proj = frozen_stats
    else:
        mean = z_t.data.mean(axis=1, keepdims=True)
        if basis_override is not None:
            proj = basis_override
        else:
            _, _, proj = _pca_basis(z_t.data - mean, m)
    if capture is not None:
        capture.append((mean, proj))
    centered_t = nm.add(z_t, nm.constant(-mean, dtype=z_t.data.dtype))
    return nm.matmul(centered_t, nm.constant(proj, dtype=z_t.data.dtype))


def random_orthonormal_basis(d: int, m: int, rng: RngState, dtype=np.float32) -> np.ndarray:
    """QR-orthonormalized Gaussian basis, fixed per run (ablation baseline)."""
    g = rng.gaussian((d, max(m, 1)), dtype=np.float64)
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    return q[:, :m].astype(dtype)


def assemble_combined(proj, p_new) -> Tensor:
    """Per-token feature concatenation [coordinates | learnable remainder]."""
    coords = proj.coords if isinstance(proj, PcaProjection) else proj
    coords_t = as_tensor(coords)
    new_t = as_tensor(p_new)
    if coords_t.data.shape[:-1] != new_t.data.shape[:-1]:
        raise DimensionError(
            f"token counts differ: {coords_t.data.shape} vs {new_t.data.shape}"
        )
    if coords_t.data.shape[-1] == 0:
        return new_t
    if new_t.data.shape[-1] == 0:
        return coords_t
    return nm.concat([coords_t, new_t], axis=-1)


# --------------------------------------------------------------------------
# the combined forward rule
# --------------------------------------------------------------------------

def forward_viapt(e0, cfg: PromptConfig, prompts: DatasetPrompts, g,
                  backbone: BackboneParams, vit: ViTConfig, rng: RngState | None,
                  frozen: FrozenForward | None = None,
                  capture: FrozenForward | None = None,
                  basis_override: np.ndarray | None = None):
    """Full combined-prompt forward. Returns (logits, mu, logvar); mu/logvar
    are None when no probabilistic instance prompts are in play.

    Layer 1 consumes [class, instance + dataset prompts, image]; each later
    layer consumes the previous prompt outputs projected to m dims and padded
    with that layer's learnable components. m = d propagates outputs
    unchanged (shallow equivalence); m = 0 uses only the learnable components
    (deep equivalence). Ablations: no_instance drops the sampled tokens,
    no_pca propagates outputs unchanged while keeping them, and
    random_projection swaps the fitted basis for basis_override, the fixed
    random one that build_model draws once per run.
    """
    cfg = cfg.resolved(vit.embed_dim)
    d, p, lam, m = vit.embed_dim, cfg.tokens, cfg.instance_tokens, cfg.retained_dims
    e0_t = as_tensor(e0)
    if e0_t.data.ndim != 3 or e0_t.data.shape[-1] != d:
        raise DimensionError(f"image tokens shaped {e0_t.data.shape}, config wants (B, k, {d})")
    bsz = e0_t.data.shape[0]
    if prompts.dom.data.shape != (p - lam, d):
        raise ConfigError(
            f"dataset prompts shaped {prompts.dom.data.shape}, config wants {(p - lam, d)}"
        )
    if lam > 0 and g is None:
        raise ConfigError("lambda > 0 requires a prompt generator")
    if cfg.mode != "ablation_random_projection":
        basis_override = None
    elif basis_override is None:
        raise ConfigError("random-projection ablation needs the model's fixed basis")

    mu = logvar = None
    blocks = []
    if lam > 0:
        if cfg.mode == "direct_generation":
            blocks.append(generate_direct_prompts(e0_t, g))
        else:
            frozen_noise = frozen.noise if frozen is not None else None
            ins, mu, logvar = generate_instance_prompts(e0_t, g, lam, rng, frozen_noise)
            blocks.append(ins)
    if p - lam > 0:
        blocks.append(nm.broadcast_batch(prompts.dom, bsz))
    if not blocks:
        block = Tensor(np.zeros((bsz, 0, d), dtype=e0_t.data.dtype))
    elif len(blocks) == 1:
        block = blocks[0]
    else:
        block = nm.concat(blocks, axis=-2)
    if capture is not None:
        capture.layer1_prompts = block.data.copy()

    propagate_unchanged = m == d
    if not propagate_unchanged and m > 0 and len(prompts.new) != vit.layers - 1:
        raise ConfigError(
            f"need {vit.layers - 1} per-layer component blocks, got {len(prompts.new)}"
        )

    captured_pca = [] if capture is not None else None
    seq = initial_sequence(e0_t, block, backbone)
    for i, lp in enumerate(backbone.layers):
        if i > 0 and not propagate_unchanged:
            if m == 0:
                seq.prompts = nm.broadcast_batch(prompts.new[i - 1], bsz)
            else:
                frozen_stats = frozen.pca[i - 1] if frozen is not None and frozen.pca else None
                coords = _batched_pca_coords(seq.prompts, m, basis_override,
                                             frozen_stats, captured_pca)
                combined = assemble_combined(coords, nm.broadcast_batch(prompts.new[i - 1], bsz))
                if combined.data.shape[-1] != d:
                    raise DimensionError(
                        f"combined prompt width {combined.data.shape[-1]} != {d}"
                    )
                seq.prompts = combined
        seq = layer_forward(seq, lp, vit)
    if capture is not None:
        capture.pca = captured_pca
    return head(nm.reshape(seq.x, (bsz, -1)), backbone), mu, logvar


# --------------------------------------------------------------------------
# parameter accounting
# --------------------------------------------------------------------------

PUBLISHED_BACKBONE_TOTAL = 86_570_000  # reference total used by the published ratio table


def count_parameters(cfg: PromptConfig, vit: ViTConfig) -> dict:
    """Trainable-parameter accounting.

    Prompt counts follow the published accounting: shallow counts its p*d
    layer-1 tokens; every other mode uses (N*p - lambda)*(d - m) + lambda*m,
    which reproduces the reference tables row-for-row. At m = d that formula
    counts no layer-1 dataset tokens while shallow counts p*d for the same
    configuration; the returned note flags this first-layer inconsistency
    rather than resolving it.
    """
    cfg = cfg.resolved(vit.embed_dim)
    p, lam, m, d, n = cfg.tokens, cfg.instance_tokens, cfg.retained_dims, vit.embed_dim, vit.layers
    note = ""
    if cfg.mode == "vpt_shallow":
        prompt_params = p * d
    elif cfg.mode == "ablation_no_pca":
        prompt_params = (p - lam) * d
    else:
        prompt_params = (n * p - lam) * (d - m) + lam * m
        if m == d:
            note = ("published accounting: at m=d the layer-1 dataset tokens are not "
                    "counted, although shallow prompting counts p*d for the same shape")
    h = d // 2
    trunk = (h * d * 9 + h) + (h * h * 9 + h)
    if cfg.mode == "direct_generation" and lam > 0:
        generator_params = trunk + (h * lam * d + lam * d)
    elif cfg.probabilistic:
        generator_params = trunk + 2 * (h * d + d)
    else:
        generator_params = 0
    head_params = d * vit.classes + vit.classes
    backbone_total = backbone_parameter_count(vit)
    total = prompt_params + generator_params + head_params
    return {
        "mode": cfg.mode,
        "p": p,
        "lambda": lam,
        "m": m,
        "prompt_params": prompt_params,
        "generator_params": generator_params,
        "head_params": head_params,
        "total_trainable": total,
        "backbone_params": backbone_total,
        "ratio_of_backbone": total / backbone_total,
        "note": note,
    }


def backbone_parameter_count(vit: ViTConfig) -> int:
    """Frozen-backbone parameter total computed from the architecture."""
    d = vit.embed_dim
    patch = vit.patch_side * vit.patch_side * d + d
    per_layer = (
        4 * (d * d + d)                       # attention projections
        + 2 * 2 * d                           # two layernorm affines
        + d * (d * vit.mlp_ratio) + d * vit.mlp_ratio
        + (d * vit.mlp_ratio) * d + d
    )
    return patch + d + vit.layers * per_layer  # + class token
