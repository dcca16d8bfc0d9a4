import math

import numpy as np
import pytest

from softrpn import autograd as ag
from softrpn import harness as hz
from softrpn import model as mdl
from softrpn.autograd import Tensor
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


def block_and_per_image_grads(loss, images, upstream, params):
    """The gradients of loss(x, *g) from one backward over a (B, ...) block
    of images, and from one backward per image, as bytes: each parameter's
    (accumulated over the images in order, as the tape does), then the
    input's. upstream holds arrays with a leading block axis; image i's
    loss gets their i-th entries."""
    def grads(inputs, upstreams):
        for p in params:
            p.zero_grad()
        for x, g in zip(inputs, upstreams):
            loss(x, *g).backward()
        return ([p.grad.tobytes() for p in params]
                + [np.stack([x.grad for x in inputs]).reshape(images.shape).tobytes()])

    block = grads([Tensor(images, requires_grad=True)], [upstream])
    alone = grads([Tensor(image, requires_grad=True) for image in images], list(zip(*upstream)))
    return block, alone


def _attend(batch, pos_idx, neg_idx):
    """harness._attend as it was before training forwarded blocks."""
    if len(pos_idx) < 2 or not len(neg_idx):
        return None
    emb = batch.embeddings.data
    return mdl.attention_map(emb[neg_idx], emb[pos_idx])


def _image_loss(params, mi, config, rng):
    """Forward one image, sample a proposal minibatch, and build the loss."""
    batch = mdl.forward_rpn(Tensor(mi.record.image), params)
    pos_idx, neg_idx = mdl.sample_proposals(mi.labels, hz.MINIBATCH_SIZE, hz.POS_FRACTION, rng)
    amap = _attend(batch, pos_idx, neg_idx) if config.mode == "soft_label" else None
    return mdl.soft_label_loss(ag.gather_rows(batch.probs, pos_idx),
                               ag.gather_rows(batch.probs, neg_idx),
                               ag.gather_rows(batch.deltas, pos_idx),
                               mi.delta_targets[pos_idx], amap, config.t)


def train_per_image(config, records):
    """harness.train as it was before it forwarded blocks: one forward and
    one backward per image, the momentum step out of place. Kept as an
    oracle for it."""
    if not records:
        raise ValueError("dataset is empty")
    hz.check_extents(records)
    matched = hz.match_dataset(records)
    params = mdl.init_params(config.d_embed, mdl.N_ANCHORS,
                             np.random.default_rng(config.seed_init))
    velocity = {k: np.zeros_like(p.data) for k, p in params.items()}
    rng = np.random.default_rng(config.seed_sample)
    log: list[dict] = []
    lr = config.lr
    for it in range(config.total_iters):
        if it in config.milestones:
            lr *= hz.LR_DECAY
        # A run can blow up while every value stays finite (|param| ~1e209
        # under lr 1e30), so an overflow anywhere in the step is divergence.
        try:
            with np.errstate(over="raise"):
                for p in params.values():
                    p.zero_grad()
                picks = rng.integers(0, len(matched), size=hz.BATCH_IMAGES)
                sums = {"l_pos": 0.0, "l_neg": 0.0, "l_reg": 0.0, "total": 0.0}
                n_flagged = 0
                for k in picks:
                    losses = _image_loss(params, matched[k], config, rng)
                    ag.scale(losses.total, 1.0 / hz.BATCH_IMAGES).backward()
                    for key in sums:
                        sums[key] += getattr(losses, key).item()
                    n_flagged += len(losses.flagged)
                means = {k: v / hz.BATCH_IMAGES for k, v in sums.items()}
                if not math.isfinite(means["total"]):
                    raise hz.DivergenceError(it)
                for k, p in params.items():
                    if p.grad is not None:
                        velocity[k] = hz.MOMENTUM * velocity[k] + p.grad
                        p.data -= lr * velocity[k]
        except FloatingPointError as e:
            raise hz.DivergenceError(it) from e
        log.append({"iter": it, "lr": lr, "flagged": n_flagged, **means})
    return params, log


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
