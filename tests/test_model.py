import os
import struct
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrpn import autograd as ag
from softrpn import model as mdl
from softrpn.autograd import Tensor

from conftest import block_and_per_image_grads

D = 8
NA = 3


@pytest.fixture
def params(rng):
    return mdl.init_params(D, NA, rng)


class TestForwardRpn:
    def test_proposal_count_64px(self, params, rng):
        batch = mdl.forward_rpn(Tensor(rng.random((64, 64, 1))), params)
        assert batch.probs.shape == (192,)
        assert batch.deltas.shape == (192, 4)

    def test_embedding_length_is_d(self, params, rng):
        batch = mdl.forward_rpn(Tensor(rng.random((16, 16, 1))), params)
        assert batch.embeddings.shape[1] == D

    def test_zero_image_zero_params_gives_half(self, rng):
        params = mdl.init_params(D, NA, rng)
        for p in params.values():
            p.data[...] = 0.0
        batch = mdl.forward_rpn(Tensor(np.zeros((16, 16, 1))), params)
        np.testing.assert_array_equal(batch.probs.data, 0.5)

    def test_deterministic(self, params, rng):
        img = Tensor(rng.random((16, 16, 1)))
        a = mdl.forward_rpn(img, params)
        b = mdl.forward_rpn(img, params)
        np.testing.assert_array_equal(a.probs.data, b.probs.data)

    def test_anchor_count_and_width_read_from_params(self, rng):
        params = mdl.init_params(8, 2, rng)
        batch = mdl.forward_rpn(Tensor(rng.random((32, 48, 1))), params)
        cells = (32 // 8) * (48 // 8)
        assert batch.probs.shape == (2 * cells,)
        assert batch.deltas.shape == (2 * cells, 4)
        assert batch.embeddings.shape == (2 * cells, 8)

    def test_one_tape_node_per_conv_layer(self, params, rng):
        """Each of the six layers records a single conv2d node (conv, bias
        and ReLU together), so the tape from the outputs down to the image
        holds six convolutions and nothing between them."""
        image = Tensor(rng.random((16, 16, 1)))
        batch = mdl.forward_rpn(image, params)
        seen, stack = set(), [batch.probs, batch.deltas, batch.embeddings]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._prev)
        # leaves: the image and 14 parameters; ops: 6 convs, the scoring
        # head, the sigmoid and three reshapes
        assert len(seen) == 1 + len(params) + 6 + 1 + 1 + 3

    @pytest.mark.parametrize("n_images, shape", [(1, (16, 16)), (5, (32, 48)),
                                                 (48, (16, 24))])
    def test_block_equals_each_image_alone(self, params, rng, n_images, shape):
        """A (B, H, W, 1) block under no_grad gives every output a leading
        block axis, and image i's outputs are those of forwarding it alone,
        float for float (one flattened product of 48 images of 64x64 did not
        match)."""
        images = rng.random((n_images, *shape, 1))
        with ag.no_grad():
            block = mdl.forward_rpn(Tensor(images), params)
            alone = [mdl.forward_rpn(Tensor(image), params) for image in images]
        for name in ("probs", "deltas", "embeddings"):
            got = getattr(block, name).data
            want = np.stack([getattr(batch, name).data for batch in alone])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(st.integers(1, 5), st.sampled_from([16, 24, 40]), st.sampled_from([16, 32]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_block_gradients_equal_per_image_accumulated(self, n_images, h, w, seed):
        """One backward through a block gives every parameter the gradient
        of one backward per image accumulated in image order, and each image
        its own gradient, float for float."""
        gen = np.random.default_rng(seed)
        params = mdl.init_params(D, NA, gen)
        images = gen.random((n_images, h, w, 1))
        n = (h // 8) * (w // 8) * NA
        upstream = (gen.standard_normal((n_images, n)), gen.standard_normal((n_images, n, 4)),
                    gen.standard_normal((n_images, n, D)))

        def loss(x, gp, gd, ge):
            batch = mdl.forward_rpn(x, params)
            return ag.add(ag.add(ag.tsum(ag.mul(batch.probs, gp)),
                                 ag.tsum(ag.mul(batch.deltas, gd))),
                          ag.tsum(ag.mul(batch.embeddings, ge)))

        block, alone = block_and_per_image_grads(loss, images, upstream,
                                                 [params[k] for k in sorted(params)])
        assert block == alone

    @pytest.mark.parametrize("shape", [(16, 16), (1, 1, 16, 16, 1)])
    def test_image_of_other_rank_rejected(self, params, shape):
        with pytest.raises(ag.GraphError, match="image must be"):
            mdl.forward_rpn(Tensor(np.zeros(shape)), params)

    def test_indivisible_extent_rejected(self, params):
        with pytest.raises(ag.GraphError):
            mdl.forward_rpn(Tensor(np.zeros((20, 20, 1))), params)

    def test_grouped_head_isolation(self, params, rng):
        """Anchor 0's objectness must not read anchor 1's embedding slice."""
        img = Tensor(rng.random((16, 16, 1)))
        before = mdl.forward_rpn(img, params).probs.data.copy()
        params["rpn.cls.w"].data[1] += 10.0
        after = mdl.forward_rpn(img, params).probs.data
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
        np.testing.assert_array_equal(mdl.detect_false_negatives(amap, 0.8), [0, 2])

    def test_threshold_above_all_is_empty(self):
        amap = amap_with_row_maxes([0.85, 0.5, 0.92])
        assert mdl.detect_false_negatives(amap, 0.95).shape == (0,)

    def test_single_positive_flags_everything(self, rng):
        amap = mdl.attention_map(rng.standard_normal((6, D)),
                                 rng.standard_normal((1, D)))
        # softmax over one logit is exactly 1, so any t < 1 flags every row
        np.testing.assert_array_equal(mdl.detect_false_negatives(amap, 0.999999),
                                      np.arange(6))

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_flag_sets_nested_in_threshold(self, maxes, t1, t2):
        lo, hi = sorted((t1, t2))
        amap = amap_with_row_maxes(maxes)
        strict = mdl.detect_false_negatives(amap, hi)
        loose = mdl.detect_false_negatives(amap, lo)
        assert np.isin(strict, loose).all()
        assert (np.diff(loose) > 0).all()

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            mdl.detect_false_negatives(amap_with_row_maxes([0.5]), 1.0)


class TestSoftLabelLoss:
    def _losses(self, pos_p, neg_p, amap, t):
        return mdl.soft_label_loss(
            Tensor(np.asarray(pos_p)), Tensor(np.asarray(neg_p)),
            Tensor(np.zeros((len(pos_p), 4))), np.zeros((len(pos_p), 4)),
            amap, t)

    def test_no_rows_flagged_equals_hard_negative_bce(self, rng):
        neg_p = rng.uniform(0.1, 0.9, 5)
        amap = amap_with_row_maxes([0.3, 0.4, 0.2, 0.5, 0.1])
        soft = self._losses([0.8], neg_p, amap, 0.8)
        hard = self._losses([0.8], neg_p, None, 0.8)
        assert soft.l_neg.item() == hard.l_neg.item()
        assert len(soft.flagged) == 0

    def test_flagged_term_value(self):
        amap = amap_with_row_maxes([0.85])
        out = self._losses([0.9], [0.7], amap, 0.8)
        want = 0.85 * -np.log(0.7) + 0.15 * -np.log(0.3)
        assert out.l_neg.item() == pytest.approx(want, abs=1e-12)
        assert out.l_neg.item() == pytest.approx(0.48374, abs=1e-4)

    def test_flagged_set_monotone_in_t(self, rng):
        maxes = rng.uniform(0, 1, 12)
        amap = amap_with_row_maxes(maxes)
        strict = set(self._losses([0.5], rng.uniform(0.2, 0.8, 12), amap, 0.99).flagged)
        loose = set(self._losses([0.5], rng.uniform(0.2, 0.8, 12), amap, 0.6).flagged)
        assert strict <= loose

    def test_no_positives_zeroes_pos_and_reg(self, rng):
        out = mdl.soft_label_loss(Tensor(np.zeros(0)), Tensor(rng.uniform(0.2, 0.8, 4)),
                                  Tensor(np.zeros((0, 4))), np.zeros((0, 4)),
                                  None, 0.8)
        assert out.l_pos.item() == 0.0
        assert out.l_reg.item() == 0.0
        assert out.l_neg.item() > 0.0

    def test_normalizations(self, rng):
        """L_pos by |P_pos|, L_neg by |P_neg|, L_reg by |P_pos|."""
        pos_p = rng.uniform(0.2, 0.9, 3)
        neg_p = rng.uniform(0.1, 0.8, 5)
        pd = rng.standard_normal((3, 4))
        td = rng.standard_normal((3, 4))
        out = mdl.soft_label_loss(Tensor(pos_p), Tensor(neg_p), Tensor(pd), td,
                                  None, 0.8)
        want_pos = np.mean(-np.log(pos_p))
        want_neg = np.mean(-np.log(1 - neg_p))
        d = np.abs(pd - td)
        want_reg = np.where(d < 1, 0.5 * d * d, d - 0.5).sum() / 3
        assert out.l_pos.item() == pytest.approx(want_pos, abs=1e-12)
        assert out.l_neg.item() == pytest.approx(want_neg, abs=1e-12)
        assert out.l_reg.item() == pytest.approx(want_reg, abs=1e-12)
        assert out.total.item() == pytest.approx(want_pos + want_neg + want_reg,
                                                 abs=1e-12)

    def test_soft_target_shrinks_gradient(self):
        """For a flagged negative with p < max(A_i), the logit gradient under
        the soft target is strictly smaller than under a hard target of 1."""
        for p_val, soft_t in [(0.3, 0.85), (0.6, 0.9), (0.1, 0.82)]:
            grads = {}
            for target in (soft_t, 1.0):
                logit = Tensor([np.log(p_val / (1 - p_val))], requires_grad=True)
                ag.tsum(ag.bce_loss(ag.sigmoid(logit), [target])).backward()
                grads[target] = abs(logit.grad[0])
            assert grads[soft_t] < grads[1.0]

    def test_no_gradient_through_soft_target(self, params, rng):
        """The soft targets are constants: the parameter gradient is the same
        whether they come from the attention map of the batch's own
        embeddings or from a detached copy of its row maxima."""
        image = Tensor(rng.random((16, 16, 1)))
        pos_idx, neg_idx = np.array([1, 7]), np.array([0, 2, 3, 4, 5, 6])
        grads = []
        for detach in (False, True):
            for p in params.values():
                p.zero_grad()
            batch = mdl.forward_rpn(image, params)
            emb = batch.embeddings.data
            amap = mdl.attention_map(emb[neg_idx], emb[pos_idx])
            if detach:
                amap = amap_with_row_maxes(amap.row_max.copy())
            out = mdl.soft_label_loss(ag.gather_rows(batch.probs, pos_idx),
                                      ag.gather_rows(batch.probs, neg_idx),
                                      ag.gather_rows(batch.deltas, pos_idx),
                                      np.zeros((2, 4)), amap, 0.4)
            assert len(out.flagged) == len(neg_idx)   # two columns: row max >= 0.5
            out.total.backward()
            grads.append({k: p.grad for k, p in params.items()})
        for name, g in grads[0].items():
            np.testing.assert_array_equal(g, grads[1][name], err_msg=name)


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

    def test_magic_only_file_rejected(self, tmp_path):
        path = tmp_path / "short.srpn"
        path.write_bytes(mdl.CHECKPOINT_MAGIC)
        with pytest.raises(mdl.CheckpointError, match="truncated"):
            mdl.load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"{not json", b"\xff\xfe", b"[1, 2]", b'{"tensors": 3}',
        b'{"tensors": [{"name": "w"}]}', b'{"tensors": [{"name": "w", "shape": [-2]}]}',
        b'{"tensors": [], "meta": 7}',
    ])
    def test_malformed_header_rejected(self, header, tmp_path):
        path = tmp_path / "bad.srpn"
        path.write_bytes(mdl.CHECKPOINT_MAGIC
                         + struct.pack("<II", mdl.CHECKPOINT_VERSION, len(header))
                         + header)
        with pytest.raises(mdl.CheckpointError, match="malformed"):
            mdl.load_checkpoint(path)

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
