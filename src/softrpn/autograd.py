"""Minimal dense-tensor autograd engine.

Tensors hold float64 numpy arrays plus an optional gradient buffer.
Every differentiable op records a backward closure on its output; calling
``backward()`` on a scalar walks the tape in reverse topological order and
accumulates gradients into every reachable tensor with ``requires_grad``.

Scope is deliberately small: only the ops needed by a tiny conv backbone,
RPN heads, and the classification/regression losses.
Every contraction is a fixed matmul or broadcast: a convolution is im2col
plus one matmul (see conv2d), and one conv2d node also adds the layer's bias
and applies its ReLU, so a network layer is a single tape node.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class GraphError(Exception):
    """Raised on contract violations (shape mismatches, non-scalar backward)."""


_recording = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (used by finite differences
    and inference paths where graph bookkeeping is pure overhead)."""
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: tuple = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Reverse-mode sweep from a scalar. Repeated calls without
        ``zero_grad`` accumulate."""
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node._accumulate(g)
            if node._backward is None:
                continue
            for p, gp in zip(node._prev, node._backward(g)):
                if gp is None:
                    continue
                # out of place: a backward may hand one array (or views of
                # it) to several parents, so adding into it in place would
                # change a sibling's gradient too
                grads[id(p)] = grads[id(p)] + gp if id(p) in grads else gp

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], Iterable[Optional[np.ndarray]]]) -> Tensor:
    """Wrap an op result; records the tape only when grad mode is on and
    some parent participates in differentiation."""
    out = Tensor(data)
    if _recording and any(p.requires_grad or p._prev for p in parents):
        out._prev = tuple(parents)
        out._backward = backward
        out.requires_grad = False
    return out


def _image_sum(per_image: np.ndarray, lead: tuple) -> np.ndarray:
    """A block's per-image gradients (its leading axis) added in image order,
    ((g0 + g1) + g2) + ...: the float order in which one backward per image
    accumulates them. Without a block axis (lead empty), the gradient as is."""
    return functools.reduce(np.add, per_image) if lead else per_image


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise ------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g * b.data, a.shape),
                                          _unbroadcast(g * a.data, b.shape)))


def scale(a: Tensor, s: float) -> Tensor:
    return _make(a.data * s, (a,), lambda g: (g * s,))


def sigmoid(a: Tensor) -> Tensor:
    s = np.empty_like(a.data)
    pos = a.data >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    e = np.exp(a.data[~pos])
    s[~pos] = e / (1.0 + e)
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


def tsum(a: Tensor) -> Tensor:
    return _make(np.asarray(a.data.sum()), (a,), lambda g: (np.full_like(a.data, float(g)),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(a.data[idx], (a,), backward)


# -- linear algebra -----------------------------------------------------------

def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """The (..., ho*wo, k*k*C) matrices whose rows are the k x k windows of a
    C-contiguous (..., H, W, C) array, one row per output position, each row
    in (i, j, c) order to match a (k, k, C, Cout) kernel reshaped to 2-d."""
    lead = xp.shape[:-3]
    s0, s1, s2 = xp.strides[-3:]
    windows = np.ndarray(lead + (ho, wo, k, k, xp.shape[-1]), xp.dtype, xp, 0,
                         xp.strides[:-3] + (s0 * stride, s1 * stride, s0, s1, s2))
    return windows.reshape(lead + (ho * wo, -1))


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0,
           bias: Optional[Tensor] = None, relu: bool = False) -> Tensor:
    """2-d convolution, channels-last: x is (H, W, Cin), kernel is
    (k, k, Cin, Cout), bias (if given) is (Cout,). Returns conv(x) + bias,
    passed through a ReLU when relu is set. Output extent is
    floor((H + 2*pad - k) / stride) + 1; trailing rows that do not fill a
    window are dropped, so a 3x3/stride-2/pad-1 conv exactly halves even
    extents.

    Computed as im2col + one matmul: the windows of the zero-padded input
    become the rows of a (Ho*Wo, k*k*Cin) matrix that multiplies the kernel
    reshaped to (k*k*Cin, Cout). The bias is added to that product in place
    and the ReLU applied to the sum, so a network layer records one tape
    node. The backward masks the upstream gradient by the ReLU, sums it over
    positions for the bias, rebuilds the column matrix rather than holding
    it, and skips the input gradient when x neither requires a gradient nor
    has a tape (a raw image).

    x may also be a (B, H, W, Cin) block of images of one extent, forward
    and backward. Each image's (Ho*Wo, k*k*Cin) columns then meet the kernel
    in a BLAS call of their own, so every output float equals that of the
    image convolved alone; one (B*Ho*Wo, k*k*Cin) product would not keep
    that. Likewise the backward takes each image's kernel and bias gradient
    on its own and adds them in image order (see _image_sum), so a block's
    gradients are, bit for bit, those of one backward per image accumulated
    in turn."""
    k = kernel.shape[0]
    if kernel.data.ndim != 4 or kernel.shape[1] != k:
        raise GraphError(f"kernel must be (k, k, Cin, Cout), got {kernel.shape}")
    if k % 2 != 1:
        raise GraphError("kernel extent must be odd")
    if stride < 1 or pad < 0:
        raise GraphError("stride must be >= 1 and pad >= 0")
    shape = x.data.shape
    if len(shape) not in (3, 4) or shape[-1] != kernel.shape[2]:
        raise GraphError(f"input {shape} incompatible with kernel {kernel.shape}")
    lead = shape[:-3]
    if bias is not None and bias.shape != kernel.shape[3:]:
        raise GraphError(f"bias {bias.shape} does not match kernel {kernel.shape}")
    h, w, cin = shape[-3:]
    if h + 2 * pad < k or w + 2 * pad < k:
        raise GraphError(f"empty output extent for input {x.shape}, "
                         f"k={k}, stride={stride}, pad={pad}")
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    cout = kernel.shape[3]
    if pad:
        xp = np.zeros(lead + (h + 2 * pad, w + 2 * pad, cin))
        xp[..., pad:pad + h, pad:pad + w, :] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    kmat = kernel.data.reshape(k * k * cin, cout)
    data = (_im2col(xp, k, stride, ho, wo) @ kmat).reshape(lead + (ho, wo, cout))
    if bias is not None:
        data += bias.data
    if relu:
        mask = data > 0
        data = np.where(mask, data, 0.0)
    needs_gx = x.requires_grad or bool(x._prev)
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward(g):
        if relu:
            g = g * mask
        gb = None if bias is None else _image_sum(g.sum(axis=-3).sum(axis=-2), lead)
        g2 = g.reshape(lead + (ho * wo, cout))
        # The columns are freed before gcols is allocated: holding both
        # (~1.2 MB at 128x128) made the allocator return and re-fault heap
        # pages on every backward.
        gk = _image_sum(np.matmul(_im2col(xp, k, stride, ho, wo).swapaxes(-1, -2), g2),
                        lead).reshape(kernel.shape)
        if not needs_gx:
            return (None, gk, gb)[:len(parents)]
        # g @ K^T, laid out tap-major: (..., k*k, Ho*Wo, Cin), one block per tap
        taps_t = kmat.reshape(k * k, cin, cout).transpose(0, 2, 1)
        gcols = np.matmul(g2[..., None, :, :], taps_t).reshape(lead + (k, k, ho, wo, cin))
        gxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                # each kernel tap adds its block back onto a strided slab
                gxp[..., i:i + stride * ho:stride, j:j + stride * wo:stride, :] += \
                    gcols[..., i, j, :, :, :]
        return ((gxp[..., pad:pad + h, pad:pad + w, :] if pad else gxp), gk, gb)[:len(parents)]

    return _make(data, parents, backward)


def anchor_scores(fe: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Grouped 1x1 scoring head: fe is (..., H, W, na*D), w is (na, D), b is
    (na,). Anchor a's score at each cell reads only its own D-slice, so the
    output (..., H, W, na) never mixes embeddings across anchors. Computed
    as a broadcast multiply and a sum over D, cell by cell, so a block of
    images scores each image as it would alone; the backward sums w's and
    b's gradients over each image's cells, then adds the images in order,
    as conv2d does."""
    na, d = w.shape
    if fe.shape[-1] != na * d:
        raise GraphError(f"embedding channels {fe.shape[-1]} != na*D = {na * d}")
    fe4 = fe.data.reshape(*fe.shape[:-1], na, d)
    data = (fe4 * w.data).sum(axis=-1) + b.data
    lead = fe.shape[:-3]

    def backward(g):
        g4 = g[..., None]
        gfe = (g4 * w.data).reshape(fe.shape)
        gw = _image_sum((fe4 * g4).sum(axis=(-4, -3)), lead)
        gb = _image_sum(g.sum(axis=(-3, -2)), lead)
        return gfe, gw, gb

    return _make(data, (fe, w, b), backward)


# -- losses -------------------------------------------------------------------

BCE_EPS = 1e-7


def bce_loss(p: Tensor, target) -> Tensor:
    """Elementwise binary cross-entropy against constant targets in [0, 1].
    Probabilities are clamped to [eps, 1-eps]; the gradient is zero in the
    clamped region, matching the clamped forward."""
    t = np.asarray(target, dtype=np.float64)
    pc = np.clip(p.data, BCE_EPS, 1.0 - BCE_EPS)
    data = -(t * np.log(pc) + (1.0 - t) * np.log1p(-pc))
    inside = (p.data > BCE_EPS) & (p.data < 1.0 - BCE_EPS)

    def backward(g):
        return (g * inside * (pc - t) / (pc * (1.0 - pc)),)

    return _make(data, (p,), backward)


def smooth_l1(pred: Tensor, target) -> Tensor:
    """Elementwise smooth-L1 of (pred - target): 0.5 d^2 for |d| < 1, else
    |d| - 0.5. Targets are constants."""
    t = np.asarray(target, dtype=np.float64)
    d = pred.data - t
    ad = np.abs(d)
    data = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)

    def backward(g):
        return (g * np.clip(d, -1.0, 1.0),)

    return _make(data, (pred,), backward)
