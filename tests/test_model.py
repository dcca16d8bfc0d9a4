import os
import struct
import threading
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softrpn import autograd as ag
from softrpn import model as mdl

from conftest import attend_one_image, numeric_grad, sampled_loss

D = 8
NA = 3


@pytest.fixture
def params(rng):
    return mdl.init_params(D, NA, rng)


def test_param_shapes_are_those_init_params_draws():
    params = mdl.init_params(D, NA, np.random.default_rng(0))
    shapes = mdl.param_shapes(D, NA)
    assert list(shapes) == list(params)
    assert all(params[k].shape == shape for k, shape in shapes.items())


class TestForwardRpn:
    def test_proposal_count_64px(self, params, rng):
        batch = mdl.forward_rpn(rng.random((64, 64, 1)), params)
        assert batch.probs.shape == (192,)
        assert batch.deltas.shape == (192, 4)

    def test_embedding_length_is_d(self, params, rng):
        batch = mdl.forward_rpn(rng.random((16, 16, 1)), params)
        assert batch.embeddings.shape[1] == D

    def test_zero_image_zero_params_gives_half(self, rng):
        params = mdl.init_params(D, NA, rng)
        for p in params.values():
            p.data[...] = 0.0
        batch = mdl.forward_rpn(np.zeros((16, 16, 1)), params)
        np.testing.assert_array_equal(batch.probs, 0.5)

    def test_deterministic(self, params, rng):
        img = rng.random((16, 16, 1))
        a = mdl.forward_rpn(img, params)
        b = mdl.forward_rpn(img, params)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_anchor_count_and_width_read_from_params(self, rng):
        params = mdl.init_params(8, 2, rng)
        batch = mdl.forward_rpn(rng.random((32, 48, 1)), params)
        cells = (32 // 8) * (48 // 8)
        assert batch.probs.shape == (2 * cells,)
        assert batch.deltas.shape == (2 * cells, 4)
        assert batch.embeddings.shape == (2 * cells, 8)

    def test_one_tape_node_per_conv_layer(self, params, rng):
        """Each of the six layers records a single conv2d node (conv, bias
        and ReLU together), so the tape from its two outputs, the logits and
        the regression output, down to the image holds six convolutions and
        the scoring head, nothing between them and nothing after them; the
        outputs themselves are arrays."""
        batch = mdl.forward_rpn(rng.random((16, 16, 1)), params)
        assert all(type(getattr(batch, name)) is np.ndarray
                   for name in ("probs", "deltas", "embeddings"))
        seen, stack = set(), [batch.logits, batch.regression]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._prev)
        # leaves: the image and 14 parameters; ops: 6 convs and the scoring head
        assert len(seen) == 1 + len(params) + 6 + 1

    @pytest.mark.parametrize("n_images, shape", [(1, (16, 16)), (5, (32, 48)),
                                                 (48, (16, 24))])
    def test_block_equals_each_image_alone(self, params, rng, n_images, shape):
        """A (B, H, W, 1) block under no_grad gives every output a leading
        block axis, and image i's outputs are those of forwarding it alone,
        float for float (one flattened product of 48 images of 64x64 did not
        match)."""
        images = rng.random((n_images, *shape, 1))
        with ag.no_grad():
            block = mdl.forward_rpn(images, params)
            alone = [mdl.forward_rpn(image, params) for image in images]
        for name in ("probs", "deltas", "embeddings"):
            got = getattr(block, name)
            want = np.stack([getattr(batch, name) for batch in alone])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(st.integers(1, 5), st.sampled_from([16, 24, 40]), st.sampled_from([16, 32]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_block_gradients_equal_per_image_accumulated(self, n_images, h, w, seed):
        """One backward through a block, from heads_loss_node, gives every
        parameter the gradient of one backward per image accumulated in
        image order, float for float."""
        gen = np.random.default_rng(seed)
        params = mdl.init_params(D, NA, gen)
        images = gen.random((n_images, h, w, 1))
        n = (h // 8) * (w // 8) * NA
        g_probs = gen.standard_normal((n_images, n))
        g_deltas = gen.standard_normal((n_images, n, 4))

        def grads(blocks):
            for p in params.values():
                p.zero_grad()
            for x, gp, gd in blocks:
                mdl.heads_loss_node(mdl.forward_rpn(x, params), 0.0, gp, gd).backward()
            return [params[k].grad.tobytes() for k in sorted(params)]

        assert grads([(images, g_probs, g_deltas)]) == grads(zip(images, g_probs, g_deltas))

    @pytest.mark.parametrize("sends", [(True, False), (False, True), (False, False)],
                             ids=["probs-only", "deltas-only", "neither"])
    def test_zero_gradient_reaches_its_head_as_zeros(self, params, rng, sends):
        """A zero gradient sends its head zeros, not None: every parameter
        gets a grad, rpn.reg's all zero without a deltas gradient and the
        scoring head's all zero without a probs gradient, so the momentum
        step of harness.train decays each head's velocity either way."""
        batch = mdl.forward_rpn(rng.random((16, 16, 1)), params)
        g_probs, g_deltas = (rng.standard_normal(a.shape) if sent else np.zeros(a.shape)
                             for a, sent in zip((batch.probs, batch.deltas), sends))
        mdl.heads_loss_node(batch, 1.5, g_probs, g_deltas).backward()
        assert all(p.grad is not None for p in params.values())
        for name, sent in (("rpn.cls.w", sends[0]), ("rpn.cls.b", sends[0]),
                           ("rpn.reg.w", sends[1]), ("rpn.reg.b", sends[1]),
                           ("rpn.share.w", any(sends)), ("backbone.conv0.w", any(sends))):
            assert params[name].grad.any() == sent, name

    @pytest.mark.parametrize("shape", [(16, 16), (1, 1, 16, 16, 1)])
    def test_image_of_other_rank_rejected(self, params, shape):
        with pytest.raises(ag.GraphError, match="image must be"):
            mdl.forward_rpn(np.zeros(shape), params)

    def test_indivisible_extent_rejected(self, params):
        with pytest.raises(ag.GraphError):
            mdl.forward_rpn(np.zeros((20, 20, 1)), params)

    def test_grouped_head_isolation(self, params, rng):
        """Anchor 0's objectness must not read anchor 1's embedding slice."""
        img = rng.random((16, 16, 1))
        before = mdl.forward_rpn(img, params).probs.copy()
        params["rpn.cls.w"].data[1] += 10.0
        after = mdl.forward_rpn(img, params).probs
        changed = np.abs(after - before) > 1e-12
        anchor_of = np.arange(len(before)) % NA
        assert changed[anchor_of == 1].all()
        assert not changed[anchor_of != 1].any()


class TestAttentionMap:
    def test_single_positive_column_of_ones(self, rng):
        amap = mdl.attention_map(rng.standard_normal((5, D)),
                                 rng.standard_normal((1, D)))
        np.testing.assert_array_equal(amap.a, np.ones((5, 1)))

    def test_identical_embedding_takes_row_max(self, rng):
        pos = np.zeros((2, D))
        pos[0, 0] = 1.0   # unit x
        pos[1, 1] = 1.0   # orthogonal
        neg = np.zeros((1, D))
        neg[0, 0] = 2.0   # same direction as pos 0
        amap = mdl.attention_map(neg, pos)
        assert amap.a[0].argmax() == 0
        assert amap.row_max[0] > 0.5

    def test_matches_direct_reimplementation(self, rng):
        neg = rng.standard_normal((5, D))
        pos = rng.standard_normal((3, D))
        amap = mdl.attention_map(neg, pos)
        # independent reimplementation: row standardize, ZCA whiten the
        # joint batch, L2 normalize, scaled-cosine softmax
        def std_rows(x):
            mu = x.mean(axis=1, keepdims=True)
            return (x - mu) / np.sqrt(((x - mu) ** 2).mean(axis=1,
                                                           keepdims=True) + 1e-12)
        zn, zp = std_rows(neg), std_rows(pos)
        rows = np.concatenate([zn, zp])
        mean = rows.mean(axis=0)
        c = rows - mean
        cov = c.T @ c / len(rows)
        cov += (0.01 * np.trace(cov) / D + 1e-12) * np.eye(D)
        evals, evecs = np.linalg.eigh(cov)
        w = evecs @ np.diag(evals ** -0.5) @ evecs.T
        wn, wp = (zn - mean) @ w, (zp - mean) @ w
        wn /= np.linalg.norm(wn, axis=1, keepdims=True)
        wp /= np.linalg.norm(wp, axis=1, keepdims=True)
        logits = (wn @ wp.T) * mdl.ATTENTION_LOGIT_SCALE
        logits -= logits.max(axis=1, keepdims=True)
        want = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(amap.a, want, atol=1e-9)
        np.testing.assert_allclose(amap.a.sum(axis=1), 1.0, atol=1e-9)

    def test_row_max_bounded_away_from_one(self, rng):
        """No row max can reach 1 - 1e-9 with two or more positives, so a
        threshold of 1 - 1e-9 can never flag (exact baseline fallback)."""
        bound = 1.0 / (1.0 + np.exp(-2.0 * mdl.ATTENTION_LOGIT_SCALE))
        assert bound < 1.0 - 1e-9
        for _ in range(20):
            amap = mdl.attention_map(rng.standard_normal((6, D)),
                                     rng.standard_normal((3, D)))
            assert amap.row_max.max() <= bound

    def test_no_positives_signalled(self, rng):
        with pytest.raises(ag.GraphError, match="positive"):
            mdl.attention_map(rng.standard_normal((4, D)), np.zeros((0, D)))

    def test_no_negatives_signalled(self, rng):
        with pytest.raises(ag.GraphError, match="negative"):
            mdl.attention_map(np.zeros((0, D)), rng.standard_normal((3, D)))

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, seed, factor):
        gen = np.random.default_rng(seed)
        neg = gen.standard_normal((4, D)) + 0.1
        pos = gen.standard_normal((2, D)) + 0.1
        a1 = mdl.attention_map(neg, pos).a
        neg2 = neg.copy()
        neg2[1] *= factor
        a2 = mdl.attention_map(neg2, pos).a
        np.testing.assert_allclose(a1, a2, atol=1e-9)

    def test_affine_invariant_per_row(self, rng):
        """Row standardization removes a positive scale and a shift of any
        single embedding, negative or positive."""
        neg = rng.standard_normal((3, 16))
        pos = rng.standard_normal((4, 16))
        want = mdl.attention_map(neg, pos).a
        neg2, pos2 = neg.copy(), pos.copy()
        neg2[1] = 7.0 * neg2[1] - 4.0
        pos2[2] = 0.25 * pos2[2] + 3.0
        np.testing.assert_allclose(mdl.attention_map(neg2, pos2).a, want, atol=1e-9)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 1e4))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, seed, magnitude):
        gen = np.random.default_rng(seed)
        amap = mdl.attention_map(gen.uniform(-magnitude, magnitude, (5, D)),
                                 gen.uniform(-magnitude, magnitude, (7, D)))
        np.testing.assert_allclose(amap.a.sum(axis=1), 1.0, atol=1e-9)

    def test_constant_embeddings_give_uniform_rows(self):
        """A constant embedding row (a dead embedding head) standardizes and
        whitens to zeros; a zero row is normalized to zeros, not 0/0, so
        every logit is 0 and each row is uniform over the positives."""
        neg = np.array([[0.0], [1.0], [-2.0], [3.5]]) * np.ones(D)
        pos = np.array([[0.5], [-1.0], [4.0]]) * np.ones(D)
        amap = mdl.attention_map(neg, pos)
        np.testing.assert_array_equal(amap.a, np.full((4, 3), 1.0 / 3.0))
        np.testing.assert_array_equal(amap.row_max, np.full(4, 1.0 / 3.0))

    def test_zero_row_passes_through(self):
        """The unit-row step maps a zero row to zeros without a 0/0, and the
        map of all-constant embeddings (whose whitened rows are all zero)
        raises no floating-point error."""
        x = np.array([[3.0, 4.0], [0.0, 0.0], [1e-13, 0.0]])
        with np.errstate(all="raise"):
            unit = mdl._unit_rows(x)
            amap = mdl.attention_map(np.full((3, D), 2.0), np.full((2, D), -1.0))
        np.testing.assert_allclose(unit[0], [0.6, 0.8], atol=1e-15)
        np.testing.assert_array_equal(unit[1:], np.zeros((2, 2)))
        np.testing.assert_array_equal(amap.a, np.full((3, 2), 0.5))

    def test_softmax_stable_at_logit_1000(self, rng, monkeypatch):
        """The softmax subtracts each row's max before exponentiating, so
        logits of 1000 (exp overflows) still give finite rows summing to 1."""
        monkeypatch.setattr(mdl, "ATTENTION_LOGIT_SCALE", 1000.0)
        pos = rng.standard_normal((3, D))
        neg = np.concatenate([pos[:1], rng.standard_normal((4, D))])
        amap = mdl.attention_map(neg, pos)
        assert np.isfinite(amap.a).all()
        np.testing.assert_allclose(amap.a.sum(axis=1), 1.0, atol=1e-12)
        assert amap.a[0].argmax() == 0 and amap.row_max[0] > 0.5

    def test_plain_arrays_and_no_tensor(self, rng, monkeypatch):
        """The map is a constant of the loss: it is built from and returned
        as ndarrays, with no Tensor (and so no tape node) along the way."""
        def no_tensor(*args, **kwargs):
            raise AssertionError("attention_map built a Tensor")

        monkeypatch.setattr(ag, "Tensor", no_tensor)
        monkeypatch.setattr(mdl, "Tensor", no_tensor)
        amap = mdl.attention_map(rng.standard_normal((5, D)),
                                 rng.standard_normal((3, D)))
        assert type(amap.a) is np.ndarray and amap.a.shape == (5, 3)
        assert type(amap.row_max) is np.ndarray and amap.row_max.shape == (5,)


def attention_one_image(neg, pos):
    """attention_map as it was before it took stacks, on (n, D) and (m, D)
    rows. Kept as an oracle for it: training logs and checkpoints depend on
    every float, and projecting the joint rows in one product, say, changes
    some of them. Returns (a, row_max)."""
    def standardize(x):
        centered = x - x.mean(axis=1, keepdims=True)
        return centered / np.sqrt((centered * centered).mean(axis=1, keepdims=True) + 1e-12)

    def unit(x):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        tiny = norms < 1e-12
        return np.where(tiny, 0.0, x / np.where(tiny, 1.0, norms))

    zn, zp = standardize(neg), standardize(pos)
    rows = np.concatenate([zn, zp])
    d = rows.shape[1]
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / len(rows)
    cov += (mdl.ATTENTION_SHRINKAGE * np.trace(cov) / d + 1e-12) * np.eye(d)
    evals, evecs = np.linalg.eigh(cov)
    transform = evecs @ ((evals ** -0.5)[:, None] * evecs.T)
    cn, cp = unit((zn - mean) @ transform), unit((zp - mean) @ transform)
    logits = (cn @ cp.T.copy()) * mdl.ATTENTION_LOGIT_SCALE
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    return a, a.max(axis=1)


class TestStackedAttention:
    """attention_map and whitening_stats on stacks, and block_attention on
    ragged blocks, equal one call per image, byte for byte; and one call
    equals the map as computed before stacks."""

    @given(st.integers(1, 60), st.integers(2, 16), st.integers(2, 40),
           st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_single_image_equals_the_map_before_stacks(self, n, m, d, seed, log_scale):
        gen = np.random.default_rng(seed)
        neg = gen.standard_normal((n, d)) * 10.0 ** log_scale
        pos = gen.standard_normal((m, d)) * 10.0 ** log_scale
        got = mdl.attention_map(neg, pos)
        a, row_max = attention_one_image(neg, pos)
        assert got.a.tobytes() == a.tobytes()
        assert got.row_max.tobytes() == row_max.tobytes()

    @given(st.integers(1, 5), st.integers(1, 60), st.integers(2, 16), st.integers(2, 40),
           st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_stack_equals_separate_calls(self, g, n, m, d, seed, log_scale):
        gen = np.random.default_rng(seed)
        neg = gen.standard_normal((g, n, d)) * 10.0 ** log_scale
        pos = gen.standard_normal((g, m, d)) * 10.0 ** log_scale
        stacked = mdl.attention_map(neg, pos)
        assert stacked.a.shape == (g, n, m) and stacked.row_max.shape == (g, n)
        rows = np.concatenate([neg, pos], axis=1)
        mean, transform = mdl.whitening_stats(rows)
        assert mean.shape == (g, d) and transform.shape == (g, d, d)
        for i in range(g):
            alone = mdl.attention_map(neg[i], pos[i])
            assert stacked.a[i].tobytes() == alone.a.tobytes()
            assert stacked.row_max[i].tobytes() == alone.row_max.tobytes()
            mean_i, transform_i = mdl.whitening_stats(rows[i])
            assert mean[i].tobytes() == mean_i.tobytes()
            assert transform[i].tobytes() == transform_i.tobytes()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_block_attention_equals_per_image_maps(self, seed, n_images, d):
        """Ragged blocks: images of one joint row count but other negative
        counts, of other joint counts, with one positive or no negative
        (no map); a joint count of 64 is the common one."""
        gen = np.random.default_rng(seed)
        n_anchors = 150
        embeddings = gen.standard_normal((n_images, n_anchors, d)) * 10.0 ** gen.uniform(-2, 2)
        picks = []
        for _ in range(n_images):
            n_pos = int(gen.choice([0, 1, 2, 5, 9, 16]))
            n_neg = int(gen.choice([0, 64 - n_pos, gen.integers(1, 64)]))
            rows = gen.permutation(n_anchors)
            picks.append((np.sort(rows[:n_pos]), np.sort(rows[n_pos:n_pos + n_neg])))
        row_max = mdl.block_attention(embeddings, picks)
        assert row_max.shape == (sum(len(neg) for _, neg in picks),)
        at = 0
        for emb, (pos, neg) in zip(embeddings, picks):
            got, at = row_max[at:at + len(neg)], at + len(neg)
            if len(pos) < 2 or not len(neg):
                assert got.tobytes() == np.zeros(len(neg)).tobytes()
                continue
            want = mdl.attention_map(emb[neg], emb[pos])
            assert got.tobytes() == want.row_max.tobytes()

    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.sampled_from([0, 1, 2, 4, 9]), st.sampled_from([0, 1, 12, 30])),
                    min_size=1, max_size=5),
           st.integers(2, 40), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(0, [(0, 12), (1, 12), (4, 0), (4, 12), (2, 14)], 8, 0.5)
    @example(1, [(4, 12), (4, 12), (9, 30)], 8, 1e-9)
    @settings(max_examples=60, deadline=None)
    def test_block_attention_is_the_per_image_row_maxima(self, seed, counts, d, t):
        """block_attention is the concatenation of each image's own
        attention row maxima (attend_one_image), byte for byte, with zeros
        for an image it does not attend: no positive, one positive, or no
        negative. Those zero rows are never flagged and keep the hard zero
        target of the loss before blocks, at any t in (0, 1)."""
        gen = np.random.default_rng(seed)
        n_anchors = 80
        embeddings = gen.standard_normal((len(counts), n_anchors, d)) * 10.0 ** gen.uniform(-2, 2)
        picks = []
        for n_pos, n_neg in counts:
            rows = gen.permutation(n_anchors)
            picks.append((np.sort(rows[:n_pos]), np.sort(rows[n_pos:n_pos + n_neg])))
        maps = [attend_one_image(emb, pos, neg) for emb, (pos, neg) in zip(embeddings, picks)]
        want = np.concatenate([np.zeros(len(neg)) if amap is None else amap.row_max
                               for amap, (_, neg) in zip(maps, picks)])
        row_max = mdl.block_attention(embeddings, picks)
        assert (row_max.dtype, row_max.shape) == (want.dtype, want.shape)
        assert row_max.tobytes() == want.tobytes()
        n_pos, n_neg = [len(pos) for pos, _ in picks], [len(neg) for _, neg in picks]
        neg_p = gen.uniform(0.01, 0.99, sum(n_neg))
        values, fires, (_, grad_neg, _) = mdl.block_soft_label_loss(
            np.full(sum(n_pos), 0.5), neg_p, np.zeros((sum(n_pos), 4)),
            np.zeros((sum(n_pos), 4)), n_pos, n_neg, row_max, t)
        assert fires.tobytes() == mdl.flag_mask(row_max, t).tobytes()
        at = 0
        for i, (amap, k) in enumerate(zip(maps, n_neg)):
            a, at = at, at + k
            if amap is None:
                assert not fires[a:at].any()
                hard = loss_one_image(np.zeros(0), neg_p[a:at], np.zeros((0, 4)),
                                      np.zeros((0, 4)), None, t, 1.0)
                assert values["l_neg"][i] == hard[1]
                assert grad_neg[a:at].tobytes() == hard[5].tobytes()


def amap_with_row_maxes(row_maxes):
    """Build an AttentionMap whose row maxima are exactly as given."""
    n = len(row_maxes)
    a = np.zeros((n, 2))
    a[:, 0] = row_maxes
    a[:, 1] = 1.0 - np.asarray(row_maxes)
    return mdl.AttentionMap(a=a, row_max=np.asarray(row_maxes, float))


class TestDetectFalseNegatives:
    def test_direct_comparison(self):
        amap = amap_with_row_maxes([0.85, 0.5, 0.92])
        np.testing.assert_array_equal(np.flatnonzero(mdl.flag_mask(amap.row_max, 0.8)), [0, 2])

    def test_threshold_above_all_is_empty(self):
        amap = amap_with_row_maxes([0.85, 0.5, 0.92])
        assert np.flatnonzero(mdl.flag_mask(amap.row_max, 0.95)).shape == (0,)

    def test_single_positive_flags_everything(self, rng):
        amap = mdl.attention_map(rng.standard_normal((6, D)),
                                 rng.standard_normal((1, D)))
        # softmax over one logit is exactly 1, so any t < 1 flags every row
        np.testing.assert_array_equal(np.flatnonzero(mdl.flag_mask(amap.row_max, 0.999999)),
                                      np.arange(6))

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_flag_sets_nested_in_threshold(self, maxes, t1, t2):
        lo, hi = sorted((t1, t2))
        amap = amap_with_row_maxes(maxes)
        strict = np.flatnonzero(mdl.flag_mask(amap.row_max, hi))
        loose = np.flatnonzero(mdl.flag_mask(amap.row_max, lo))
        assert np.isin(strict, loose).all()
        assert (np.diff(loose) > 0).all()

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            np.flatnonzero(mdl.flag_mask(amap_with_row_maxes([0.5]).row_max, 1.0))

    @pytest.mark.parametrize("t", [0.5, 0.8])
    def test_row_max_equal_to_t_flags_in_the_loss_and_the_audit(self, t):
        """A row max of exactly t fires in the loss (its flagged, and a soft
        target of t) and is flagged by the audit (flag_mask);
        one just below t is neither."""
        below = np.nextafter(t, 0.0)
        amaps = [amap_with_row_maxes([t, below, 0.95]), amap_with_row_maxes([below, t])]
        _, fires, (_, grad_neg, _) = mdl.block_soft_label_loss(
            np.full(2, 0.5), np.full(5, 0.3), np.zeros((2, 4)), np.zeros((2, 4)),
            [1, 1], [3, 2], np.concatenate([amap.row_max for amap in amaps]), t)
        flagged = [np.flatnonzero(fires[a:b]).tolist() for a, b in ((0, 3), (3, 5))]
        for image, amap in zip(flagged, amaps):
            assert image == np.flatnonzero(mdl.flag_mask(amap.row_max, t)).tolist()
        assert flagged == [[0, 2], [1]]
        # a probability of 0.3 is pulled up toward a soft target >= 0.5, down toward 0
        assert np.sign(grad_neg).tolist() == [-1, 1, -1, 1, -1]


class TestSoftLabelLoss:
    def _losses(self, pos_p, neg_p, amap, t):
        return mdl.soft_label_loss(
            np.asarray(pos_p, float), np.asarray(neg_p, float),
            np.zeros((len(pos_p), 4)), np.zeros((len(pos_p), 4)), amap, t)

    def _reg(self, pred, target):
        """L_reg of one positive with the given delta prediction and target."""
        return mdl.soft_label_loss(np.array([0.5]), np.zeros(0), np.array([pred], float),
                                   np.array([target], float), None, 0.8).l_reg

    def test_no_rows_flagged_equals_hard_negative_bce(self, rng):
        neg_p = rng.uniform(0.1, 0.9, 5)
        amap = amap_with_row_maxes([0.3, 0.4, 0.2, 0.5, 0.1])
        soft = self._losses([0.8], neg_p, amap, 0.8)
        hard = self._losses([0.8], neg_p, None, 0.8)
        assert soft.l_neg == hard.l_neg
        assert soft.grad_neg.tobytes() == hard.grad_neg.tobytes()
        assert len(soft.flagged) == 0

    def test_flagged_term_value(self):
        amap = amap_with_row_maxes([0.85])
        out = self._losses([0.9], [0.7], amap, 0.8)
        want = 0.85 * -np.log(0.7) + 0.15 * -np.log(0.3)
        assert out.l_neg == pytest.approx(want, abs=1e-12)
        assert out.l_neg == pytest.approx(0.48374, abs=1e-4)

    def test_bce_at_its_symmetric_point_is_log_2(self):
        out = self._losses([0.9], [0.5], amap_with_row_maxes([0.5]), 0.5)
        assert out.l_neg == pytest.approx(np.log(2.0), abs=1e-12)
        assert out.grad_neg[0] == 0.0

    def test_perfect_positive_costs_nothing(self):
        assert self._losses([1.0 - 1e-7], [0.5], None, 0.8).l_pos == pytest.approx(0.0, abs=1e-6)

    def test_clamped_probabilities_stay_finite_with_zero_gradient(self):
        out = self._losses([0.0], [1.0], None, 0.8)
        assert np.isfinite([out.l_pos, out.l_neg, out.total]).all()
        assert (out.grad_pos == 0.0).all() and (out.grad_neg == 0.0).all()

    def test_smooth_l1_branches(self):
        assert self._reg([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]) == 0.0
        assert self._reg([0.5, 0.0, 0.0, 0.0], np.zeros(4)) == pytest.approx(0.125)
        assert self._reg([2.0, 0.0, 0.0, 0.0], np.zeros(4)) == pytest.approx(1.5)

    def test_flagged_set_monotone_in_t(self, rng):
        maxes = rng.uniform(0, 1, 12)
        amap = amap_with_row_maxes(maxes)
        strict = set(self._losses([0.5], rng.uniform(0.2, 0.8, 12), amap, 0.99).flagged)
        loose = set(self._losses([0.5], rng.uniform(0.2, 0.8, 12), amap, 0.6).flagged)
        assert strict <= loose

    def test_no_positives_zeroes_pos_and_reg(self, rng):
        out = mdl.soft_label_loss(np.zeros(0), rng.uniform(0.2, 0.8, 4),
                                  np.zeros((0, 4)), np.zeros((0, 4)), None, 0.8)
        assert out.l_pos == 0.0
        assert out.l_reg == 0.0
        assert out.l_neg > 0.0
        assert out.grad_pos.shape == (0,) and out.grad_deltas.shape == (0, 4)

    def test_normalizations(self, rng):
        """L_pos by |P_pos|, L_neg by |P_neg|, L_reg by |P_pos|."""
        pos_p = rng.uniform(0.2, 0.9, 3)
        neg_p = rng.uniform(0.1, 0.8, 5)
        pd = rng.standard_normal((3, 4))
        td = rng.standard_normal((3, 4))
        out = mdl.soft_label_loss(pos_p, neg_p, pd, td, None, 0.8)
        want_pos = np.mean(-np.log(pos_p))
        want_neg = np.mean(-np.log(1 - neg_p))
        d = np.abs(pd - td)
        want_reg = np.where(d < 1, 0.5 * d * d, d - 0.5).sum() / 3
        assert out.l_pos == pytest.approx(want_pos, abs=1e-12)
        assert out.l_neg == pytest.approx(want_neg, abs=1e-12)
        assert out.l_reg == pytest.approx(want_reg, abs=1e-12)
        assert out.total == pytest.approx(want_pos + want_neg + want_reg, abs=1e-12)

    @pytest.mark.parametrize("weight", [1.0, 0.25])
    def test_gradients_match_finite_differences(self, rng, weight):
        """The gradients are weight times those of the returned total, by
        central finite differences, with soft targets flagged and deltas on
        both smooth-L1 branches."""
        pos_p = rng.uniform(0.1, 0.9, 3)
        neg_p = rng.uniform(0.1, 0.9, 6)
        pd = rng.standard_normal((3, 4)) * 1.5
        td = rng.standard_normal((3, 4))
        amap = amap_with_row_maxes([0.9, 0.3, 0.85, 0.95, 0.2, 0.6])
        out = mdl.soft_label_loss(pos_p, neg_p, pd, td, amap, 0.8, weight)
        assert list(out.flagged) == [0, 2, 3]
        assert (np.abs(pd - td) > 1).any() and (np.abs(pd - td) < 1).any()

        def total():
            return mdl.soft_label_loss(pos_p, neg_p, pd, td, amap, 0.8).total

        for x, got in ((pos_p, out.grad_pos), (neg_p, out.grad_neg), (pd, out.grad_deltas)):
            np.testing.assert_allclose(got, weight * numeric_grad(total, x),
                                       rtol=1e-6, atol=1e-10)

    def test_soft_target_shrinks_gradient(self):
        """For a flagged negative with p < max(A_i), the gradient under the
        soft target is strictly smaller than under a hard target of 1."""
        for p_val, soft_t in [(0.3, 0.85), (0.6, 0.9), (0.1, 0.82)]:
            grads = [abs(self._losses([0.5], [p_val], amap_with_row_maxes([target]),
                                      0.8).grad_neg[0])
                     for target in (soft_t, 1.0)]
            assert grads[0] < grads[1]

    def test_no_gradient_through_soft_target(self, params, rng):
        """The soft targets are constants: the parameter gradient is the same
        whether they come from the attention map of the batch's own
        embeddings or from a detached copy of its row maxima."""
        image = rng.random((16, 16, 1))
        pos_idx, neg_idx = np.array([1, 7]), np.array([0, 2, 3, 4, 5, 6])
        grads = []
        for detach in (False, True):
            for p in params.values():
                p.zero_grad()
            batch = mdl.forward_rpn(image, params)
            emb = batch.embeddings
            amap = mdl.attention_map(emb[neg_idx], emb[pos_idx])
            if detach:
                amap = amap_with_row_maxes(amap.row_max.copy())
            out, root = sampled_loss(batch, pos_idx, neg_idx, np.zeros((2, 4)), amap, 0.4)
            assert len(out.flagged) == len(neg_idx)   # two columns: row max >= 0.5
            root.backward()
            grads.append({k: p.grad for k, p in params.items()})
        for name, g in grads[0].items():
            np.testing.assert_array_equal(g, grads[1][name], err_msg=name)


def loss_one_image(pos_probs, neg_probs, pos_deltas, pos_delta_targets, amap, t, weight):
    """soft_label_loss as it was before it computed blocks, one image's
    rows at a time. Kept as an oracle for it: (l_pos, l_neg, l_reg,
    flagged, grad_pos, grad_neg, grad_deltas)."""
    def bce(p, target, w):
        pc = np.clip(p, mdl.BCE_EPS, 1.0 - mdl.BCE_EPS)
        value = -(target * np.log(pc) + (1.0 - target) * np.log1p(-pc))
        inside = (p > mdl.BCE_EPS) & (p < 1.0 - mdl.BCE_EPS)
        return value.sum(), np.full_like(p, w) * inside * (pc - target) / (pc * (1.0 - pc))

    def smooth_l1(pred, target, w):
        d = pred - target
        ad = np.abs(d)
        value = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)
        return value.sum(), np.full_like(d, w) * np.clip(d, -1.0, 1.0)

    def mean(term, x, target):
        if not len(x):
            return 0.0, np.zeros_like(x)
        inv = 1.0 / len(x)
        value, grad = term(x, target, weight * inv)
        return float(value * inv), grad

    targets = np.zeros(len(neg_probs))
    flagged = np.zeros(0, dtype=np.intp)
    if amap is not None and len(neg_probs):
        flagged = np.flatnonzero(mdl.flag_mask(amap.row_max, t))
        targets[flagged] = amap.row_max[flagged]
    l_neg, grad_neg = mean(bce, neg_probs, targets)
    l_pos, grad_pos = mean(bce, pos_probs, np.ones(len(pos_probs)))
    l_reg, grad_deltas = mean(smooth_l1, pos_deltas, pos_delta_targets)
    return l_pos, l_neg, l_reg, flagged, grad_pos, grad_neg, grad_deltas


def loss_instance(gen, counts, soft=True):
    """Concatenated rows of images with the given (n_pos, n_neg) counts:
    probabilities spanning the clamped ends, deltas on both smooth-L1
    branches, and for each image with a negative (when soft) a map whose
    row maxima straddle the thresholds."""
    n_pos, n_neg = [c[0] for c in counts], [c[1] for c in counts]
    probs = gen.choice([0.0, 1e-8, 0.2, 0.5, 0.9, 1.0 - 1e-8, 1.0], size=sum(n_pos) + sum(n_neg))
    probs = np.where(gen.random(len(probs)) < 0.7, gen.uniform(0.01, 0.99, len(probs)), probs)
    pos_deltas = gen.standard_normal((sum(n_pos), 4)) * 1.5
    targets = gen.standard_normal((sum(n_pos), 4))
    amaps = [amap_with_row_maxes(gen.uniform(0.3, 1.0, k)) if soft and k else None
             for k in n_neg]
    return probs[:sum(n_pos)], probs[sum(n_pos):], pos_deltas, targets, n_pos, n_neg, amaps


class TestBlockSoftLabelLoss:
    """block_soft_label_loss equals one soft_label_loss call per image:
    values by ==, gradients by bytes; and soft_label_loss equals the loss as
    computed before blocks."""

    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.integers(0, 16), st.integers(0, 64)), min_size=1, max_size=5),
           st.sampled_from([0.5, 0.8]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_block_equals_per_image_calls(self, seed, counts, t, soft):
        counts = counts + [(0, 5), (3, 0)]      # an image without positive, one without negative
        gen = np.random.default_rng(seed)
        pos_p, neg_p, pd, td, n_pos, n_neg, amaps = loss_instance(gen, counts, soft)
        row_max = np.concatenate([np.zeros(k) if amap is None else amap.row_max
                                  for amap, k in zip(amaps, n_neg)])
        values, fires, (grad_pos, grad_neg, grad_deltas) = mdl.block_soft_label_loss(
            pos_p, neg_p, pd, td, n_pos, n_neg, row_max, t, 0.25)
        assert list(values) == ["l_pos", "l_neg", "l_reg", "total"]
        assert all(len(per_image) == len(counts) for per_image in values.values())
        assert (fires.dtype, fires.shape) == (bool, neg_p.shape)
        p = q = 0
        for i, ((k_pos, k_neg), amap) in enumerate(zip(counts, amaps)):
            want = mdl.soft_label_loss(pos_p[p:p + k_pos], neg_p[q:q + k_neg],
                                       pd[p:p + k_pos], td[p:p + k_pos], amap, t, 0.25)
            for name, per_image in values.items():
                assert per_image[i] == getattr(want, name), name
            got = {"flagged": fires[q:q + k_neg].nonzero()[0], "grad_pos": grad_pos[p:p + k_pos],
                   "grad_neg": grad_neg[q:q + k_neg], "grad_deltas": grad_deltas[p:p + k_pos]}
            for name, a in got.items():
                b = getattr(want, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            p, q = p + k_pos, q + k_neg
        assert (p, q) == (len(pos_p), len(neg_p))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 16), st.integers(0, 64),
           st.sampled_from([0.5, 0.8]), st.sampled_from([1.0, 0.25]))
    @settings(max_examples=80, deadline=None)
    def test_single_image_equals_the_loss_before_blocks(self, seed, k_pos, k_neg, t, weight):
        gen = np.random.default_rng(seed)
        pos_p, neg_p, pd, td, _, _, (amap,) = loss_instance(gen, [(k_pos, k_neg)])
        got = mdl.soft_label_loss(pos_p, neg_p, pd, td, amap, t, weight)
        want = loss_one_image(pos_p, neg_p, pd, td, amap, t, weight)
        assert (got.l_pos, got.l_neg, got.l_reg) == want[:3]
        assert got.total == (want[0] + want[1]) + want[2]
        for a, b in zip((got.flagged, got.grad_pos, got.grad_neg, got.grad_deltas), want[3:]):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestSampleProposals:
    def labels(self, n_pos, n_neg, n_ignore=0):
        lab = np.array([1] * n_pos + [0] * n_neg + [-1] * n_ignore)
        np.random.default_rng(0).shuffle(lab)
        return lab

    def test_quota_arithmetic(self):
        lab = self.labels(30, 500)
        pos, neg = mdl.sample_proposals(lab, 64, 0.25, np.random.default_rng(1))
        assert len(pos) == 16 and len(neg) == 48

    def test_fewer_positives_all_kept(self):
        lab = self.labels(3, 100)
        pos, neg = mdl.sample_proposals(lab, 64, 0.25, np.random.default_rng(1))
        assert len(pos) == 3 and len(neg) == 61

    def test_deterministic_given_seed(self):
        lab = self.labels(30, 500)
        a = mdl.sample_proposals(lab, 64, 0.25, np.random.default_rng(42))
        b = mdl.sample_proposals(lab, 64, 0.25, np.random.default_rng(42))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_ignored_never_sampled(self):
        lab = self.labels(5, 5, 50)
        pos, neg = mdl.sample_proposals(lab, 64, 0.25, np.random.default_rng(1))
        assert all(lab[i] == 1 for i in pos)
        assert all(lab[i] == 0 for i in neg)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, params, tmp_path):
        path = tmp_path / "model.srpn"
        mdl.save_checkpoint(path, params, meta={"note": "test"})
        loaded, meta = mdl.load_checkpoint(path)
        assert meta == {"note": "test"}
        assert set(loaded) == set(params)
        for k in params:
            assert loaded[k].data.tobytes() == params[k].data.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.srpn"
        path.write_bytes(b"nope" + b"\x00" * 64)
        with pytest.raises(mdl.CheckpointError):
            mdl.load_checkpoint(path)

    def test_truncated_payload_names_tensor(self, params, tmp_path):
        path = tmp_path / "model.srpn"
        mdl.save_checkpoint(path, params)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(mdl.CheckpointError):
            mdl.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_names_it(self, params, tmp_path, value):
        path = tmp_path / "model.srpn"
        params["rpn.reg.w"].data.flat[5] = value
        mdl.save_checkpoint(path, params)
        with pytest.raises(mdl.CheckpointError) as e:
            mdl.load_checkpoint(path)
        assert str(e.value) == f"{path}: tensor rpn.reg.w holds a value that is not finite"

    def test_shape_beyond_int64_reads_as_truncated(self, tmp_path):
        """2**32 x 2**32 elements overflow an int64 product to 0; counted
        exactly, they exceed the file and are refused before any read."""
        header = b'{"tensors": [{"name": "w", "shape": [4294967296, 4294967296]}]}'
        path = tmp_path / "huge.srpn"
        path.write_bytes(mdl.CHECKPOINT_MAGIC
                         + struct.pack("<II", mdl.CHECKPOINT_VERSION, len(header)) + header)
        with pytest.raises(mdl.CheckpointError, match="truncated payload for tensor w"):
            mdl.load_checkpoint(path)

    def test_magic_only_file_rejected(self, tmp_path):
        path = tmp_path / "short.srpn"
        path.write_bytes(mdl.CHECKPOINT_MAGIC)
        with pytest.raises(mdl.CheckpointError, match="truncated"):
            mdl.load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"{not json", b"\xff\xfe", b"[1, 2]", b'{"tensors": 3}',
        b'{"tensors": [{"name": "w"}]}', b'{"tensors": [{"name": "w", "shape": [-2]}]}',
        b'{"tensors": [], "meta": 7}',
        pytest.param(b'{"tensors": [{"name": "w", "shape": [1e400]}]}', id="1e400"),
        pytest.param(b'{"tensors": [{"name": "w", "shape": [Infinity]}]}', id="Infinity"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100k"),
        # no elements, so no payload, but a dimension no array can have
        pytest.param(b'{"tensors": [{"name": "w", "shape": [0, 1e30]}]}', id="0x1e30"),
    ])
    def test_malformed_header_rejected(self, header, tmp_path):
        path = tmp_path / "bad.srpn"
        path.write_bytes(mdl.CHECKPOINT_MAGIC
                         + struct.pack("<II", mdl.CHECKPOINT_VERSION, len(header))
                         + header)
        with pytest.raises(mdl.CheckpointError, match="malformed"):
            mdl.load_checkpoint(path)

    def test_oversized_dimension_names_file_and_tensor(self, tmp_path):
        header = b'{"tensors": [{"name": "rpn.cls.b", "shape": [0, %d]}]}' % 10 ** 30
        path = tmp_path / "big.srpn"
        path.write_bytes(mdl.CHECKPOINT_MAGIC
                         + struct.pack("<II", mdl.CHECKPOINT_VERSION, len(header)) + header)
        with pytest.raises(mdl.CheckpointError) as err:
            mdl.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: malformed shape [0, {10 ** 30}] "
                                          f"for tensor rpn.cls.b")

    def test_save_replaces_whole_file_and_leaves_no_temporary(self, params, tmp_path):
        path = tmp_path / "model.srpn"
        path.write_bytes(b"x" * 10**6)
        mdl.save_checkpoint(path, params)
        assert mdl.load_checkpoint(path)[0].keys() == params.keys()
        assert os.listdir(tmp_path) == ["model.srpn"]

    def test_failed_save_keeps_previous_checkpoint(self, params, tmp_path):
        path = tmp_path / "model.srpn"
        mdl.save_checkpoint(path, params, meta={"note": "old"})
        before = path.read_bytes()
        broken = {**params, "zz.broken": object()}   # no .data: fails mid-payload
        with pytest.raises(AttributeError):
            mdl.save_checkpoint(path, broken, meta={"note": "new"})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.srpn"]

    @pytest.mark.parametrize("name", ["ckpt64.srpn", "ckpt128.srpn"])
    def test_committed_benchmark_checkpoints_resave_byte_identical(self, name, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", name)
        loaded, meta = mdl.load_checkpoint(src)
        mdl.save_checkpoint(tmp_path / name, loaded, meta=meta)
        with open(src, "rb") as f:
            assert (tmp_path / name).read_bytes() == f.read()


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestWriteFile:
    @pytest.fixture
    def closes(self, monkeypatch):
        """Each descriptor write_file hands to its closer: the bytes it reads,
        its link count and the thread that closes it. `done` is set after a
        close."""
        seen, done = [], threading.Event()
        close = mdl._close_old

        def recording_close(fd):
            seen.append((os.pread(fd, 64, 0), os.fstat(fd).st_nlink,
                         threading.get_ident()))
            close(fd)
            done.set()

        monkeypatch.setattr(mdl, "_close_old", recording_close)
        return seen, done

    @pytest.fixture
    def no_threads(self, monkeypatch):
        """write_file may start no thread: one would raise AssertionError."""
        def no_thread(*args, **kwargs):
            raise AssertionError("write_file started a thread")

        monkeypatch.setattr(mdl, "threading", types.SimpleNamespace(Thread=no_thread))

    def test_rewrite_releases_old_file_on_another_thread(self, closes, tmp_path):
        seen, done = closes
        path = tmp_path / "out.json"
        mdl.write_file(path, [b"old bytes"])
        fds = open_fds()
        mdl.write_file(path, [b"new"])
        assert path.read_bytes() == b"new"
        assert done.wait(timeout=30)
        [(held_bytes, links, closer)] = seen
        # the held descriptor is the replaced file, no longer linked anywhere
        assert held_bytes == b"old bytes" and links == 0
        assert closer != threading.get_ident()
        assert open_fds() == fds
        assert os.listdir(tmp_path) == ["out.json"]

    def test_new_path_holds_nothing_and_starts_no_thread(self, closes, no_threads,
                                                        tmp_path):
        fds = open_fds()
        mdl.write_file(tmp_path / "new.json", [b"data"])
        assert (tmp_path / "new.json").read_bytes() == b"data"
        assert closes[0] == [] and open_fds() == fds

    def test_directory_path_raises_and_leaves_nothing(self, closes, tmp_path):
        target = tmp_path / "report"
        target.mkdir()
        fds = open_fds()
        with pytest.raises(IsADirectoryError):
            mdl.write_file(target, [b"data"])
        assert closes[0] == [] and open_fds() == fds
        assert os.listdir(tmp_path) == ["report"]

    def test_chunks_are_concatenated_and_a_failing_producer_keeps_old_bytes(
            self, closes, tmp_path):
        path = tmp_path / "out.json"
        mdl.write_file(path, iter([b"ab", b"", b"cd"]))
        assert path.read_bytes() == b"abcd"

        def failing_chunks():
            yield b"partial"
            raise ValueError("producer failed")

        fds = open_fds()
        with pytest.raises(ValueError, match="producer failed"):
            mdl.write_file(path, failing_chunks())
        assert path.read_bytes() == b"abcd" and closes[0] == [] and open_fds() == fds
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_replace_closes_held_file_and_keeps_old_bytes(self, closes, tmp_path,
                                                                 monkeypatch):
        path = tmp_path / "out.json"
        path.write_bytes(b"old")
        fds = open_fds()

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            mdl.write_file(path, [b"new"])
        assert closes[0] == [] and open_fds() == fds
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_fifo_is_replaced_without_blocking(self, no_threads, tmp_path):
        """A FIFO is not a regular file: it is opened without blocking, not
        held, and replaced like any other path."""
        path = tmp_path / "pipe"
        os.mkfifo(path)
        errors = []

        def write():
            try:
                mdl.write_file(path, [b"data"])
            except BaseException as e:
                errors.append(e)

        worker = threading.Thread(target=write, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive() and errors == []
        assert path.read_bytes() == b"data"
