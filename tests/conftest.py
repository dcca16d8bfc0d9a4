import numpy as np
import pytest

from softrpn import autograd as ag
from softrpn import harness as hz
from softrpn import model as mdl
from softrpn.autograd import Tensor
from softrpn.geometry import encode_deltas, iou_matrix


def numeric_grad(fn, tensor, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued fn wrt one tensor, or
    one float64 array that fn reads."""
    data = tensor.data if isinstance(tensor, ag.Tensor) else tensor
    flat = data.reshape(-1)
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
    return grad.reshape(data.shape)


def assert_grad_matches(fn, tensor: ag.Tensor, rel_tol: float = 1e-3,
                        step: float = 1e-5):
    """Backprop fn() and compare tensor.grad against finite differences."""
    tensor.zero_grad()
    loss = fn()
    loss.backward()
    got = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
    want = numeric_grad(lambda: float(fn().data), tensor, step=step)
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


def dot_loss(tensors, grads):
    """The sum over the pairs of tsum(tensor * grad), as one loss_node: its
    gradient with respect to each tensor is that grad, bit for bit."""
    value = sum(float((t.data * g).sum()) for t, g in zip(tensors, grads))
    return ag.loss_node(value, tensors, grads)


def sampled_loss(batch, pos_idx, neg_idx, delta_targets, amap, t, weight=1.0):
    """soft_label_loss of one image's forward outputs at its sampled rows,
    and the node (model.heads_loss_node) that carries its gradients into
    them: each added into zeros at its rows, as harness._block_losses does,
    so a term over no rows sends a zero gradient."""
    probs, deltas = batch.probs, batch.deltas
    out = mdl.soft_label_loss(probs[pos_idx], probs[neg_idx], deltas[pos_idx],
                              delta_targets, amap, t, weight)
    g_probs, g_deltas = np.zeros_like(probs), np.zeros_like(deltas)
    g_probs[pos_idx] += out.grad_pos
    g_probs[neg_idx] += out.grad_neg
    g_deltas[pos_idx] += out.grad_deltas
    return out, mdl.heads_loss_node(batch, weight * out.total, g_probs, g_deltas)


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


def attend_one_image(embeddings, pos_idx, neg_idx):
    """The attention of one image's sampled negatives to its sampled
    positives among its (N, D) embeddings, one attention_map call per image,
    as training and the audit attended before they attended whole blocks;
    None below two positives or without a negative. Kept as an oracle for
    model.block_attention."""
    if len(pos_idx) < 2 or not len(neg_idx):
        return None
    return mdl.attention_map(embeddings[neg_idx], embeddings[pos_idx])


def image_loss(params, mi, config, rng):
    """Forward one image, sample a proposal minibatch, and build the loss
    and the node to backpropagate its share of the iteration's loss from."""
    batch = mdl.forward_rpn(mi.record.image, params)
    pos_idx, neg_idx = mdl.sample_proposals(mi.labels, hz.MINIBATCH_SIZE, hz.POS_FRACTION, rng)
    amap = (attend_one_image(batch.embeddings, pos_idx, neg_idx)
            if config.mode == "soft_label" else None)
    return sampled_loss(batch, pos_idx, neg_idx, mi.delta_targets[pos_idx], amap, config.t,
                        1.0 / hz.BATCH_IMAGES)


def train_per_image(config, records):
    """harness.train as it was before it forwarded blocks: one forward and
    one backward per image, the momentum step out of place, and the same
    divergence rule (harness.DIVERGENCE_LOSS). Kept as an oracle for it."""
    if not records:
        raise ValueError("dataset is empty")
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
        # an overflow anywhere in the step is divergence, and so is a loss
        # past DIVERGENCE_LOSS
        try:
            with np.errstate(over="raise"):
                for p in params.values():
                    p.zero_grad()
                picks = rng.integers(0, len(matched), size=hz.BATCH_IMAGES)
                sums = {"l_pos": 0.0, "l_neg": 0.0, "l_reg": 0.0, "total": 0.0}
                n_flagged = 0
                for k in picks:
                    losses, root = image_loss(params, matched[k], config, rng)
                    root.backward()
                    for key in sums:
                        sums[key] += getattr(losses, key)
                    n_flagged += len(losses.flagged)
                means = {k: v / hz.BATCH_IMAGES for k, v in sums.items()}
                if not means["total"] <= hz.DIVERGENCE_LOSS:
                    raise hz.DivergenceError(it)
                for k, p in params.items():
                    velocity[k] = hz.MOMENTUM * velocity[k] + p.grad
                    p.data -= lr * velocity[k]
        except FloatingPointError as e:
            raise hz.DivergenceError(it) from e
        log.append({"iter": it, "lr": lr, "flagged": n_flagged, **means})
    return params, log


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
