"""Independent central-finite-difference oracle used by the gradient tests
and scripts/gradient_check.py.

The finite differences know nothing about the analytic backward passes they
check; model_gradient_errors only calls the model's forward and backward.
"""

import numpy as np

from grufcn.model import backward, forward
from grufcn.tensor_core import Rng


def numerical_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f w.r.t. array x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return grad


def max_rel_error(analytic, numeric):
    """Max over elements of |a - n| / max(1, |a|, |n|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def assert_grad_close(analytic, numeric, tol, label=""):
    err = max_rel_error(analytic, numeric)
    assert err <= tol, f"{label}: gradient mismatch, max relative error {err:.3e} > {tol}"


def model_gradient_errors(model, x, y):
    """{tensor name: max_rel_error} of one training-mode backward on (x, y)
    against central differences of the loss, for every tensor but the
    batch-norm moving statistics, which each pass resets; dropout draws from
    Rng(0). A tensor backward gives no gradient for must have a zero numeric
    one. Raises AssertionError if the gradients are not exactly those of
    model.trainable_parameters()."""
    def loss():
        for block in model.blocks:
            block.bn_moving_mean[:] = 0
            block.bn_moving_var[:] = 1
        _, cache = forward(model, x, training=True, rng=Rng(0))
        return backward(model, cache, y)

    _, grads = loss()
    trainable = model.trainable_parameters()
    assert grads.keys() == trainable.keys(), \
        f"gradients of {sorted(grads)}, trainable {sorted(trainable)}"
    errors = {}
    for name, arr in model.parameters().items():
        if "moving" in name:
            continue
        def f(v, arr=arr):
            arr[...] = v
            return loss()[0]
        errors[name] = max_rel_error(grads.get(name, np.zeros_like(arr)),
                                     numerical_grad(f, arr.copy()))
    return errors
