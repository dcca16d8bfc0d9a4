import numpy as np
import pytest

from softrpn import autograd as ag
from softrpn.geometry import encode_deltas, iou_matrix


def numeric_grad(fn, tensor: ag.Tensor, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued fn wrt one tensor."""
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    with ag.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = fn()
            flat[i] = orig - step
            lo = fn()
            flat[i] = orig
            grad[i] = (hi - lo) / (2 * step)
    return grad.reshape(tensor.data.shape)


def assert_grad_matches(fn, tensor: ag.Tensor, rel_tol: float = 1e-3,
                        step: float = 1e-5):
    """Backprop fn() and compare tensor.grad against finite differences."""
    tensor.zero_grad()
    loss = fn()
    loss.backward()
    got = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
    want = numeric_grad(lambda: fn().item(), tensor, step=step)
    np.testing.assert_allclose(got, want, atol=1e-7, rtol=rel_tol,
                               err_msg="backprop gradient disagrees with "
                                       "finite differences")


def match_one_image(anchors, gt, pos_thresh, neg_thresh):
    """Label (N, 4) anchors against one image's (G, 4) ground truth, one
    image per call: match_anchors as it was before it labelled blocks of
    images, kept as an oracle for it. Returns labels (N,) and targets
    (N, 4)."""
    labels = np.zeros(len(anchors), dtype=np.int64)
    targets = np.zeros((len(anchors), 4))
    if not len(gt):
        return labels, targets
    m = iou_matrix(anchors, gt)
    best_iou = m.max(axis=1)
    labels[best_iou >= pos_thresh] = 1
    labels[(best_iou >= neg_thresh) & (best_iou < pos_thresh)] = -1
    gt_best = m.max(axis=0)
    forced = (m >= gt_best - 1e-9) & (gt_best > 0)
    is_forced = forced.any(axis=1)
    assigned = np.where(is_forced, len(gt) - 1 - forced[:, ::-1].argmax(axis=1),
                        m.argmax(axis=1))
    labels[is_forced] = 1
    pos = labels == 1
    targets[pos] = encode_deltas(anchors[pos], gt[assigned[pos]])
    return labels, targets


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
