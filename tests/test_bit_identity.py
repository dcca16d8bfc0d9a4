"""The artifacts of train, eval and audit are byte-identical with conv2d's
ReLU and column code, and block_attention, as they were before the ReLU
was applied in place, conv0's columns gathered, and each attention stack
projected into one buffer. The oracles below are those earlier versions;
the gate runs the pipeline once with the code as it is and once with the
oracles patched in, so it holds on any CPU's BLAS kernels, where pinned
digests would not."""

import itertools
import json

import numpy as np
import pytest

from softrpn import autograd as ag
from softrpn import model as mdl
from softrpn.cli import main

from conftest import im2col_strided


def conv2d_before(x, kernel, stride=1, pad=0, bias=None, relu=False):
    """conv2d with its columns copied from the strided windows for every
    input, and its ReLU as np.where with a mask kept for the backward.
    Kept as an oracle for the in-place ReLU and conv0's gathered columns."""
    k, cin, cout = kernel.shape[0], kernel.shape[2], kernel.shape[3]
    shape = x.data.shape
    lead = shape[:-3]
    h, w = shape[-3:-1]
    ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    if pad:
        xp = np.zeros(lead + (h + 2 * pad, w + 2 * pad, cin))
        xp[..., pad:pad + h, pad:pad + w, :] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    kmat = kernel.data.reshape(k * k * cin, cout)
    data = (im2col_strided(xp, k, stride, ho, wo) @ kmat).reshape(lead + (ho, wo, cout))
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
        gb = None if bias is None else g.sum(axis=-3).sum(axis=-2)
        g2 = g.reshape(lead + (ho * wo, cout))
        gk = np.matmul(im2col_strided(xp, k, stride, ho, wo).swapaxes(-1, -2),
                       g2).reshape(lead + kernel.shape)
        if not needs_gx:
            return (None, gk, gb)[:len(parents)]
        taps_t = kmat.reshape(k * k, cin, cout).transpose(0, 2, 1)
        gcols = np.matmul(g2[..., None, :, :], taps_t).reshape(lead + (k, k, ho, wo, cin))
        gxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                gxp[..., i:i + stride * ho:stride, j:j + stride * wo:stride, :] += \
                    gcols[..., i, j, :, :, :]
        return ((gxp[..., pad:pad + h, pad:pad + w, :] if pad else gxp), gk, gb)[:len(parents)]

    return ag._make(data, parents, backward)


def block_attention_before(embeddings, picks):
    """block_attention with each count's stack sorted by negative count,
    whitened with a per-matrix trace, and each run of one negative count
    projected, softmaxed and maximized as one stack. Kept as an oracle for
    the one projection buffer per stack and the row max taken as 1/sum."""
    at = [0, *itertools.accumulate(len(neg) for _, neg in picks)]
    row_max = np.zeros(at[-1])
    by_count = {}
    for j, (pos, neg) in enumerate(picks):
        if len(pos) >= 2 and len(neg):
            by_count.setdefault(len(pos) + len(neg), []).append(j)
    for members in by_count.values():
        members.sort(key=lambda j: len(picks[j][1]))
        rows = np.array([np.concatenate(picks[j][::-1]) for j in members])
        z = mdl._standardize_rows(embeddings[np.array(members)[:, None], rows])
        n, d = z.shape[-2:]
        mean = z.sum(axis=-2) / n
        centered = z - mean[..., None, :]
        cov = centered.swapaxes(-1, -2) @ centered / n
        shrink = np.array([mdl.ATTENTION_SHRINKAGE * np.trace(c) / d + 1e-12 for c in cov])
        cov += shrink[:, None, None] * np.eye(d)
        evals, evecs = np.linalg.eigh(cov)
        transform = evecs @ ((evals ** -0.5)[..., None] * evecs.swapaxes(-1, -2))
        start = 0
        for n_neg, run in itertools.groupby(members, key=lambda j: len(picks[j][1])):
            run = list(run)
            s = slice(start, start + len(run))
            start = s.stop
            m = mean[s][..., None, :]
            cn = mdl._unit_rows((z[s, :n_neg] - m) @ transform[s])
            cp = mdl._unit_rows((z[s, n_neg:] - m) @ transform[s])
            logits = (cn @ cp.swapaxes(-1, -2).copy()) * mdl.ATTENTION_LOGIT_SCALE
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            a = e / e.sum(axis=-1, keepdims=True)
            for j, r in zip(run, a.max(axis=-1)):
                row_max[at[j]:at[j + 1]] = r
    return row_max


# (extent, images, config): soft labels at 64 (forward blocks of four),
# the baseline at 128 (blocks of one image, conv0's columns from a 130x130
# padded extent) and soft labels at 80 (blocks of two).
RUNS = ((64, 8, {"mode": "soft_label", "total_iters": 20, "milestones": [10, 16]}),
        (128, 3, {"mode": "baseline", "total_iters": 10, "milestones": [5, 8],
                  "image_size": 128}),
        (80, 6, {"mode": "soft_label", "total_iters": 20, "milestones": [10, 16],
                 "image_size": 80}))


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("identity_data")
    for size, images, config in RUNS:
        assert main(["synth", "--out", str(root / f"d{size}"), "--images", str(images),
                     "--size", str(size), "--seed", str(size)]) == 0
        (root / f"c{size}.json").write_text(json.dumps(config))
    return root


def pipeline_bytes(data, out):
    """Each run's checkpoint, training log, eval report and audit reports
    (at the trained t and at t = 0.5), by name."""
    artifacts = {}
    for size, _, _ in RUNS:
        d, o = str(data / f"d{size}"), out / f"t{size}"
        assert main(["train", "--data", d, "--out", str(o),
                     "--config", str(data / f"c{size}.json")]) == 0
        ckpt = str(o / "checkpoint.srpn")
        assert main(["eval", "--checkpoint", ckpt, "--data", d,
                     "--report", str(o / "eval.json")]) == 0
        assert main(["audit", "--checkpoint", ckpt, "--data", d,
                     "--report", str(o / "audit.json")]) == 0
        assert main(["audit", "--checkpoint", ckpt, "--data", d, "--t", "0.5",
                     "--report", str(o / "audit05.json")]) == 0
        for name in ("checkpoint.srpn", "train_log.jsonl", "eval.json", "audit.json",
                     "audit05.json"):
            artifacts[f"t{size}/{name}"] = (o / name).read_bytes()
    return artifacts


def test_artifacts_equal_those_of_the_oracles(datasets, tmp_path, monkeypatch):
    now = pipeline_bytes(datasets, tmp_path / "now")
    monkeypatch.setattr(ag, "conv2d", conv2d_before)
    monkeypatch.setattr(mdl, "block_attention", block_attention_before)
    before = pipeline_bytes(datasets, tmp_path / "before")
    assert now.keys() == before.keys()
    assert [name for name in now if now[name] != before[name]] == []
    # the attention decides flags in both soft-label runs
    assert all(json.loads(now[f"t{size}/audit05.json"])["flags"] for size in (64, 80))
