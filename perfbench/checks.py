"""Correctness checks on the outputs of each workload.

Every check compares the program's output with a computation made here,
apart from the program (LAPACK's SVD, a closed-form parameter count, an
independent reader of the checkpoint format), or with a property the method
must have. Each returns a list of failure messages; an empty list passes.
Only numpy and the standard library are used, so the checks and their tests
do not depend on the package under test.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
import zlib

import numpy as np

# Tolerances, fixed beforehand from the float32 working precision.
ORTHONORMAL_ATOL = 1e-5      # |P^T P - I| on the nonzero columns of a projection
MEAN_RTOL = 1e-6             # subtracted mean vs token mean, relative to the block scale
ENERGY_RTOL = 1e-4           # kept energy vs the Eckart-Young optimum
PROB_SUM_ATOL = 1e-5         # |sum(p) - 1| per probability row
INVARIANCE_ATOL = 1e-6       # same image, other order or batch size


# --------------------------------------------------------------------------
# checkpoint archive, read independently of the package
# --------------------------------------------------------------------------

_MAGIC = b"VIAPT\x01"
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def read_archive(blob: bytes):
    """(tensors, metadata) from a checkpoint's bytes. Layout: magic, u16
    version, u32 + JSON metadata, u32 entry count, entries (u16 + name, u8
    dtype code, u8 rank, u64 dims, payload), CRC32 of everything before it."""
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a checkpoint archive")
    if struct.unpack("<I", blob[-4:])[0] != zlib.crc32(blob[:-4]) & 0xFFFFFFFF:
        raise ValueError("checkpoint crc mismatch")
    pos = len(_MAGIC) + 2

    def take(fmt):
        nonlocal pos
        vals = struct.unpack_from(fmt, blob, pos)
        pos += struct.calcsize(fmt)
        return vals

    (meta_len,) = take("<I")
    metadata = json.loads(blob[pos : pos + meta_len])
    pos += meta_len
    (count,) = take("<I")
    tensors = {}
    for _ in range(count):
        (name_len,) = take("<H")
        name = blob[pos : pos + name_len].decode("utf-8")
        pos += name_len
        code, rank = take("<BB")
        shape = take(f"<{rank}Q")
        dtype = _DTYPES[code]
        n = int(np.prod(shape, dtype=np.int64))
        tensors[name] = np.frombuffer(blob, dtype=dtype, count=n, offset=pos).reshape(shape)
        pos += n * dtype.itemsize
    if pos != len(blob) - 4:
        raise ValueError("trailing bytes in checkpoint")
    return tensors, metadata


def fingerprint(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# tuning
# --------------------------------------------------------------------------

def viapt_trainable_count(d: int, layers: int, p: int, lam: int, m: int, classes: int) -> int:
    """Closed-form trainable parameters of a viapt model: dataset prompts
    (p - lam) * d plus (L - 1) * p * (d - m) new components, the two-layer
    conv trunk at width h = d // 2, the mu and log-variance heads, and the
    classifier head."""
    h = d // 2
    prompts = (p - lam) * d + (layers - 1) * p * (d - m)
    trunk = (h * d * 9 + h) + (h * h * 9 + h)
    heads = 2 * (h * d + d)
    return prompts + trunk + heads + d * classes + classes


def check_param_count(actual: int, expected: int):
    if actual != expected:
        return [f"trainable parameters {actual} != closed form {expected}"]
    return []


def check_frozen(before: dict, after: dict, where: str):
    """before: {name: fingerprint}; after: {name: array}. Every frozen tensor
    must be present and byte-identical."""
    errors = []
    for name, fp in before.items():
        if name not in after:
            errors.append(f"{where}: frozen tensor '{name}' missing")
        elif fingerprint(after[name]) != fp:
            errors.append(f"{where}: frozen tensor '{name}' changed")
    return errors


def check_bitwise(expected: dict, got: dict, where: str):
    errors = []
    if set(expected) != set(got):
        errors.append(f"{where}: tensor names differ: {sorted(set(expected) ^ set(got))[:4]}")
    for name in sorted(set(expected) & set(got)):
        a, b = np.asarray(expected[name]), np.asarray(got[name])
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            errors.append(f"{where}: tensor '{name}' differs")
    return errors


def check_training_curve(train_xent: list):
    if not train_xent[-1] < train_xent[0]:
        return [f"last epoch train xent {train_xent[-1]} not below first {train_xent[0]}"]
    return []


def check_below_uniform(xent: float, classes: int, what: str):
    if not (math.isfinite(xent) and xent < math.log(classes)):
        return [f"{what} {xent} not below ln {classes} = {math.log(classes):.4f}"]
    return []


# --------------------------------------------------------------------------
# per-layer projection
# --------------------------------------------------------------------------

def check_projection(z: np.ndarray, mean: np.ndarray, proj: np.ndarray, m: int):
    """One layer's projection over a batch: z (B, p, d) prompt outputs of the
    previous layer, mean (B, 1, d) subtracted, proj (B, d, m).

    - the nonzero columns of proj are orthonormal;
    - mean is the token mean of z;
    - the energy kept, |(z - mean) proj|^2, equals the sum of the top
      min(m, rank) squared singular values of the centered block from LAPACK
      (Eckart-Young).
    """
    errors = []
    z64 = z.astype(np.float64)
    scale = max(float(np.abs(z64).max()), 1.0)
    token_mean = z64.mean(axis=1, keepdims=True)
    if mean.shape != token_mean.shape or np.abs(mean - token_mean).max() > MEAN_RTOL * scale:
        errors.append("subtracted mean is not the token mean")
    centered = z64 - np.asarray(mean, dtype=np.float64)
    p64 = proj.astype(np.float64)
    s = np.linalg.svd(centered, compute_uv=False)
    bsz, p, d = z.shape
    for b in range(bsz):
        live = np.linalg.norm(p64[b], axis=0) > 0.0
        cols = p64[b][:, live]
        gram = cols.T @ cols
        if np.abs(gram - np.eye(cols.shape[1])).max() > ORTHONORMAL_ATOL:
            errors.append(f"image {b}: projection columns not orthonormal")
            continue
        thresh = s[b, 0] * max(p, d) * np.finfo(np.float32).eps
        rank = int((s[b] > thresh).sum())
        optimum = float((s[b, : min(m, rank)] ** 2).sum())
        kept = float(((centered[b] @ p64[b]) ** 2).sum())
        if abs(kept - optimum) > ENERGY_RTOL * max(optimum, 1e-30):
            errors.append(f"image {b}: kept energy {kept} != Eckart-Young {optimum}")
    return errors


# --------------------------------------------------------------------------
# prediction
# --------------------------------------------------------------------------

def check_probabilities(probs: np.ndarray):
    errors = []
    if (probs < 0).any():
        errors.append(f"{int((probs < 0).any(axis=1).sum())} probability rows have negatives")
    off = np.abs(probs.astype(np.float64).sum(axis=1) - 1.0)
    if (off > PROB_SUM_ATOL).any():
        errors.append(f"{int((off > PROB_SUM_ATOL).sum())} probability rows do not sum to 1 "
                      f"(worst {off.max():.2e})")
    return errors


def check_invariance(reference: np.ndarray, other: np.ndarray, what: str):
    """reference and other: (n, C) probabilities of the same images."""
    worst = float(np.abs(reference.astype(np.float64) - other).max())
    if worst > INVARIANCE_ATOL:
        return [f"{what}: probabilities differ by {worst:.2e} > {INVARIANCE_ATOL:.0e}"]
    return []
