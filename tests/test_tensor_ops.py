import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import viapt
import viapt.numerics as nm
import viapt.numerics.tensor as tensor_module
from viapt.backbone import embed_patches
from viapt.errors import ConfigError, DimensionError
from viapt.numerics import RngState
from viapt.training import loss

from oracles import conv2d_loops, matmul_loops

RNG = np.random.default_rng(20240817)


def fd_gradients(f, params, h=1e-6):
    """Max relative error between tape gradients and central differences."""
    loss = f()
    gmap = nm.backward(loss)
    worst = 0.0
    for p in params:
        grad = gmap[p].ravel()
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(f().data)
            flat[i] = orig - h
            down = float(f().data)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            denom = max(abs(fd), abs(grad[i]))
            if denom >= 1e-8:
                worst = max(worst, abs(fd - grad[i]) / denom)
    return worst


def t64(arr, trainable=False):
    return nm.Tensor(np.asarray(arr, dtype=np.float64), trainable=trainable)


# -- matmul -----------------------------------------------------------------

def test_matmul_identity():
    m = RNG.standard_normal((3, 4))
    out = nm.matmul(t64(np.eye(3)), t64(m))
    assert np.array_equal(out.data, m)


def test_matmul_hand_checked():
    out = nm.matmul(t64([[1.0, 2.0], [3.0, 4.0]]), t64([[0.0], [1.0]]))
    assert np.array_equal(out.data, [[2.0], [4.0]])


def test_matmul_against_triple_loop():
    a = RNG.standard_normal((5, 7))
    b = RNG.standard_normal((7, 3))
    out = nm.matmul(t64(a), t64(b)).data
    assert np.abs(out - matmul_loops(a, b)).max() < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        nm.matmul(t64(RNG.standard_normal((2, 3))), t64(RNG.standard_normal((4, 2))))


# -- op contracts -----------------------------------------------------------

def test_softmax_of_equal_entries_is_uniform():
    for n in (2, 5, 9):
        out = nm.softmax(t64(np.full((n,), 3.7))).data
        assert np.allclose(out, 1.0 / n, atol=1e-15)


def test_layernorm_constant_vector_is_zero_pre_affine():
    x = t64(np.full((4, 6), 2.5))
    out = nm.layernorm(x, t64(np.ones(6)), t64(np.zeros(6)))
    assert np.abs(out.data).max() == 0.0


def test_layernorm_affine_applies_scale_shift():
    x = t64(RNG.standard_normal((3, 8)))
    g = RNG.standard_normal(8)
    b = RNG.standard_normal(8)
    base = nm.layernorm(x, t64(np.ones(8)), t64(np.zeros(8))).data
    out = nm.layernorm(x, t64(g), t64(b)).data
    assert np.allclose(out, base * g + b, atol=1e-12)


def test_conv2d_against_nested_loops():
    x = RNG.standard_normal((1, 1, 4, 4))
    w = RNG.standard_normal((2, 1, 2, 2))
    b = RNG.standard_normal(2)
    out = nm.conv2d(t64(x), t64(w), t64(b)).data
    assert np.abs(out - conv2d_loops(x, w, b)).max() < 1e-12


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_stride_padding_against_loops(stride, padding):
    x = RNG.standard_normal((2, 3, 6, 6))
    w = RNG.standard_normal((4, 3, 3, 3))
    b = RNG.standard_normal(4)
    out = nm.conv2d(t64(x), t64(w), t64(b), stride, padding).data
    assert np.abs(out - conv2d_loops(x, w, b, stride, padding)).max() < 1e-12


def test_concat_narrow_round_trip():
    a = RNG.standard_normal((2, 3, 4))
    b = RNG.standard_normal((2, 5, 4))
    joined = nm.concat([t64(a), t64(b)], axis=1)
    assert np.array_equal(nm.narrow(joined, 1, 0, 3).data, a)
    assert np.array_equal(nm.narrow(joined, 1, 3, 5).data, b)


def test_concat_feature_axis():
    a = RNG.standard_normal((3, 2))
    b = RNG.standard_normal((3, 5))
    joined = nm.concat([t64(a), t64(b)], axis=-1)
    assert joined.data.shape == (3, 7)
    assert np.array_equal(joined.data[:, :2], a)


# -- gradients: one case per differentiable op --------------------------------

def _case_matmul():
    a = t64(RNG.standard_normal((2, 3, 4)), True)
    b = t64(RNG.standard_normal((4, 5)), True)
    return lambda: nm.sum_(nm.mul(nm.matmul(a, b), nm.matmul(a, b))), [a, b]


def _case_add_mul_broadcast():
    a = t64(RNG.standard_normal((3, 4)), True)
    b = t64(RNG.standard_normal((4,)), True)
    return lambda: nm.sum_(nm.mul(nm.add(a, b), b)), [a, b]


def _case_exp_log():
    a = t64(RNG.uniform(0.5, 2.0, (6,)), True)
    return lambda: nm.sum_(nm.log(nm.add(nm.exp(a), a))), [a]


def _case_tanh_gelu():
    a = t64(RNG.standard_normal((2, 7)), True)
    return lambda: nm.sum_(nm.mul(nm.tanh(a), nm.gelu(a))), [a]


def _case_softmax():
    a = t64(RNG.standard_normal((3, 5)), True)
    w = t64(RNG.standard_normal((3, 5)))
    return lambda: nm.sum_(nm.mul(nm.softmax(a), w)), [a]


def _case_log_softmax():
    a = t64(RNG.standard_normal((4, 6)), True)
    w = t64(RNG.standard_normal((4, 6)))
    return lambda: nm.sum_(nm.mul(nm.log_softmax(a), w)), [a]


def _case_layernorm():
    a = t64(RNG.standard_normal((2, 3, 6)), True)
    g = t64(RNG.standard_normal(6) * 0.2 + 1.0, True)
    b = t64(RNG.standard_normal(6) * 0.2, True)
    return lambda: nm.sum_(nm.mul(nm.layernorm(a, g, b), nm.layernorm(a, g, b))), [a, g, b]


def _case_conv2d():
    x = t64(RNG.standard_normal((2, 2, 4, 4)), True)
    w = t64(RNG.standard_normal((3, 2, 3, 3)) * 0.4, True)
    b = t64(RNG.standard_normal(3) * 0.2, True)
    return lambda: nm.sum_(nm.gelu(nm.conv2d(x, w, b, 1, 1))), [x, w, b]


def _case_reductions():
    a = t64(RNG.standard_normal((3, 4, 5)), True)
    return lambda: nm.add(nm.sum_(nm.mean_(a, axis=1)), nm.mean_(nm.sum_(a, axis=(0, 2)))), [a]


def _case_shapes():
    a = t64(RNG.standard_normal((2, 3, 4)), True)
    def f():
        y = nm.transpose(a, (1, 0, 2))
        y = nm.reshape(y, (3, 8))
        y = nm.swap_last2(nm.reshape(y, (3, 2, 4)))
        return nm.sum_(nm.mul(y, y))
    return f, [a]


def _case_concat_narrow():
    a = t64(RNG.standard_normal((2, 3)), True)
    b = t64(RNG.standard_normal((2, 2)), True)
    def f():
        j = nm.concat([a, b], axis=1)
        return nm.sum_(nm.mul(nm.narrow(j, 1, 1, 3), nm.narrow(j, 1, 0, 3)))
    return f, [a, b]


def _case_broadcast_batch():
    a = t64(RNG.standard_normal((3, 4)), True)
    w = t64(RNG.standard_normal((5, 3, 4)))
    return lambda: nm.sum_(nm.mul(nm.broadcast_batch(a, 5), w)), [a]


def _case_take_label():
    a = t64(RNG.standard_normal((4, 6)), True)
    labels = np.array([1, 5, 0, 3])
    return lambda: nm.mean_(nm.take_label(nm.log_softmax(a), labels)), [a]


def _case_scale_neg():
    a = t64(RNG.standard_normal((5,)), True)
    return lambda: nm.sum_(nm.scale(nm.neg(nm.mul(a, a)), 0.7)), [a]


ALL_CASES = [
    _case_matmul, _case_add_mul_broadcast, _case_exp_log, _case_tanh_gelu,
    _case_softmax, _case_log_softmax, _case_layernorm, _case_conv2d,
    _case_reductions, _case_shapes, _case_concat_narrow, _case_broadcast_batch,
    _case_take_label, _case_scale_neg,
]


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.__name__[6:])
def test_gradient_matches_finite_differences(case):
    f, params = case()
    assert fd_gradients(f, params) < 1e-6


def test_quadratic_composite_gradient():
    w = t64(RNG.standard_normal((4, 4)), True)
    x = t64(RNG.standard_normal((4, 1)))
    def f():
        y = nm.matmul(w, x)
        return nm.sum_(nm.mul(y, y))
    assert fd_gradients(f, [w], h=1e-5) < 1e-6


# -- backward contracts -------------------------------------------------------

def test_backward_of_sum_is_ones():
    w = t64(RNG.standard_normal((3, 4)), True)
    gmap = nm.backward(nm.sum_(w))
    assert np.array_equal(gmap[w], np.ones((3, 4)))


def test_backward_requires_scalar_loss():
    w = t64(RNG.standard_normal((3, 4)), True)
    with pytest.raises(ConfigError):
        nm.backward(nm.mul(w, w))


def test_frozen_leaves_receive_no_gradient_storage():
    frozen = t64(RNG.standard_normal((4,)), trainable=False)
    live = t64(RNG.standard_normal((4,)), trainable=True)
    gmap = nm.backward(nm.sum_(nm.mul(frozen, live)))
    assert frozen.grad is None
    assert frozen not in gmap
    assert np.allclose(gmap[live], frozen.data)


def test_gradient_accumulates_over_reuse():
    a = t64(np.array([2.0]), True)
    loss = nm.add(nm.mul(a, a), nm.scale(a, 3.0))  # a^2 + 3a -> 2a + 3 = 7
    gmap = nm.backward(loss)
    assert np.allclose(gmap[a], [7.0])


def test_gradient_shape_matches_value_shape():
    a = t64(RNG.standard_normal((2, 5)), True)
    gmap = nm.backward(nm.sum_(nm.gelu(a)))
    assert gmap[a].shape == a.data.shape


# -- requires-grad propagation and no_grad --------------------------------------

def _operands_passed_to_acc(node):
    """Ids of the operands a node's backward rule hands a gradient to."""
    seen = []
    node._backward(np.ones_like(node.data), lambda t, g: seen.append(id(t)))
    return seen


def _tape(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_matmul_skips_frozen_weight_gradient():
    x = t64(RNG.standard_normal((2, 3, 4)), True)
    w = t64(RNG.standard_normal((4, 5)))
    assert _operands_passed_to_acc(nm.matmul(x, w)) == [id(x)]
    v = t64(np.eye(5), True)
    assert _operands_passed_to_acc(nm.matmul(w, v)) == [id(v)]


def test_conv2d_on_frozen_input_skips_input_gradient():
    x = t64(RNG.standard_normal((2, 2, 4, 4)))
    w = t64(RNG.standard_normal((3, 2, 3, 3)), True)
    b = t64(RNG.standard_normal(3), True)
    assert sorted(_operands_passed_to_acc(nm.conv2d(x, w, b, 1, 1))) == sorted([id(w), id(b)])


@pytest.mark.parametrize("op", ["add", "mul", "layernorm", "concat"])
def test_multi_operand_rules_skip_frozen_operands(op):
    live = t64(RNG.standard_normal((3, 4)), True)
    frozen = t64(RNG.standard_normal((3, 4)))
    out = {
        "add": lambda: nm.add(frozen, live),
        "mul": lambda: nm.mul(live, frozen),
        "layernorm": lambda: nm.layernorm(live, t64(np.ones(4)), t64(np.zeros(4))),
        "concat": lambda: nm.concat([frozen, live, frozen], axis=0),
    }[op]()
    assert _operands_passed_to_acc(out) == [id(live)]


def test_op_on_frozen_operands_returns_leaf():
    a = t64(RNG.standard_normal((3, 4)))
    b = nm.constant(RNG.standard_normal((4, 2)), dtype=np.float64)
    for out in (nm.matmul(a, b), nm.gelu(a), nm.concat([a, a], axis=0),
                nm.layernorm(a, t64(np.ones(4)), t64(np.zeros(4)))):
        assert out._parents == () and out._backward is None
        assert not out.requires_grad


def test_frozen_embedding_leaves_no_tape(tiny_vit, tiny_backbone):
    images = RNG.standard_normal((2, 1, 8, 8))
    e0 = embed_patches(images, tiny_backbone, tiny_vit)
    assert e0._parents == () and e0._backward is None


def test_no_grad_forward_records_no_tape(tiny_vit, tiny_model):
    images = RNG.standard_normal((3, 1, 8, 8))
    taped, _, _ = tiny_model.forward(images, rng=RngState(4))
    with nm.no_grad():
        logits, _, _ = tiny_model.forward(images, rng=RngState(4))
    assert taped._backward is not None
    assert logits._parents == () and logits._backward is None
    assert np.array_equal(logits.data, taped.data)


def test_no_grad_restores_recording_after_exception():
    live = t64(RNG.standard_normal((2,)), True)
    with pytest.raises(RuntimeError):
        with nm.no_grad():
            assert nm.mul(live, live)._backward is None
            raise RuntimeError("inside no_grad")
    assert nm.mul(live, live)._backward is not None
    with nm.no_grad():
        with nm.no_grad():
            pass
        assert nm.mul(live, live)._backward is None


def test_backward_keeps_gradients_only_on_trainable_leaves(tiny_vit, tiny_model):
    images = RNG.standard_normal((3, 1, 8, 8))
    logits, mu, logvar = tiny_model.forward(images, rng=RngState(4))
    total, _, _ = loss(logits, np.array([0, 1, 2]), mu, logvar, 0.01)
    tape = _tape(total)
    gmap = nm.backward(total)
    interior = [t for t in tape if t._backward is not None]
    assert interior and all(t.grad is None for t in interior)
    kept = [t for t in tape if t.grad is not None]
    assert kept and all(t.trainable for t in kept)
    assert {id(t) for t in kept} == {id(t) for t in gmap}
    assert all(t.grad is None for t in tape if not t.trainable)


# Run in a fresh interpreter: heap state left by earlier tests would blur the
# count at a process that trims freed memory.
_PREDICTION_FAULT_PROBE = """
import resource
import numpy as np
from viapt.backbone import ViTConfig, init_backbone
from viapt.inference import predict_probs
from viapt.numerics import RngState
from viapt.prompt_engine import PromptConfig
from viapt.training import build_model

vit = ViTConfig(embed_dim=48, layers=4)
backbone = init_backbone(vit, RngState(1), dtype=np.float32)
backbone.freeze()
pcfg = PromptConfig(tokens=8, instance_tokens=4, retained_dims=24)
model = build_model(vit, pcfg, RngState(2), backbone, dtype=np.float32)
images = RngState(3).gaussian((64, 1, 16, 16), dtype=np.float32)
noise = RngState(4).gaussian((4, 48), dtype=np.float32)
for _ in range(3):
    predict_probs(model, images, noise)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    predict_probs(model, images, noise)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


def test_prediction_reuses_freed_heap():
    if not tensor_module._keep_freed_heap():
        pytest.skip("no glibc mallopt in this process")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(viapt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PREDICTION_FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # about 9,000 per call when glibc trims the freed activations
    assert float(proc.stdout.split()[-1]) < 100


@pytest.mark.parametrize("error", [OSError, AttributeError, TypeError])
def test_heap_policy_without_mallopt_does_nothing(monkeypatch, error):
    def missing(*args):
        raise error("no mallopt here")

    monkeypatch.setattr(tensor_module.ctypes, "CDLL", missing)
    assert tensor_module._keep_freed_heap() is False
