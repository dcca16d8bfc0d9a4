import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softrpn import autograd as ag
from softrpn import model as mdl
from softrpn.autograd import Tensor

from conftest import assert_grad_matches, block_and_per_image_grads, dot_loss


def conv_oracle(x, k, stride, pad, g, bias=None, relu=False):
    """Direct-loop forward, input gradient, kernel gradient and bias gradient
    of conv2d (plus bias, then ReLU if set) for an upstream gradient g of the
    output's shape. The bias gradient is None without a bias."""
    h, w, _ = x.shape
    kk, cout = k.shape[0], k.shape[3]
    ho, wo = (h + 2 * pad - kk) // stride + 1, (w + 2 * pad - kk) // stride + 1
    out = np.zeros((ho, wo, cout))
    taps = []
    for oy in range(ho):
        for ox in range(wo):
            if bias is not None:
                out[oy, ox] += bias
            for i in range(kk):
                for j in range(kk):
                    y, xx = oy * stride + i - pad, ox * stride + j - pad
                    if 0 <= y < h and 0 <= xx < w:
                        out[oy, ox] += x[y, xx] @ k[i, j]
                        taps.append((oy, ox, y, xx, i, j))
    if relu:
        g = np.where(out > 0, g, 0.0)
        out = np.maximum(out, 0.0)
    gx, gk = np.zeros_like(x), np.zeros_like(k)
    for oy, ox, y, xx, i, j in taps:
        gx[y, xx] += k[i, j] @ g[oy, ox]
        gk[i, j] += np.outer(x[y, xx], g[oy, ox])
    gb = None
    if bias is not None:
        gb = np.zeros(cout)
        for oy in range(ho):
            for ox in range(wo):
                gb += g[oy, ox]
    return out, gx, gk, gb


def sum_of_squares(x):
    """tsum(x * x) as one loss_node, its value recomputed from x's data
    under finite differences."""
    return ag.loss_node(float((x.data * x.data).sum()), (x,), (2.0 * x.data,))


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    pad = draw(st.sampled_from([0, 1]))
    low = max(1, k - 2 * pad)
    h = draw(st.integers(low, 9))
    w = draw(st.integers(low, 9))
    return k, stride, pad, h, w, draw(st.integers(1, 4)), draw(st.integers(1, 4)), \
        draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


class TestConv2d:
    def test_1x1_scaling(self):
        x = Tensor(np.arange(25.0).reshape(5, 5, 1))
        k = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = ag.conv2d(x, k)
        np.testing.assert_array_equal(out.data, x.data * 2)

    def test_1x1_identity_kernel_is_identity(self, rng):
        x = Tensor(rng.standard_normal((6, 7, 1)))
        out = ag.conv2d(x, Tensor(np.ones((1, 1, 1, 1))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_counted_overlaps(self):
        x = Tensor(np.ones((3, 3, 1)))
        k = Tensor(np.ones((3, 3, 1, 1)))
        out = ag.conv2d(x, k, stride=1, pad=1)
        assert out.data[1, 1, 0] == 9.0
        for cy, cx in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert out.data[cy, cx, 0] == 4.0

    def test_matches_direct_loop(self, rng):
        x = rng.standard_normal((8, 8, 2))
        k = rng.standard_normal((3, 3, 2, 4))
        out = ag.conv2d(Tensor(x), Tensor(k), stride=1, pad=1).data
        # brute-force reference
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        want = np.zeros((8, 8, 4))
        for oy in range(8):
            for ox in range(8):
                patch = xp[oy:oy + 3, ox:ox + 3]
                for co in range(4):
                    want[oy, ox, co] = (patch * k[:, :, :, co]).sum()
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_stride2_halves_even_extent(self, rng):
        x = Tensor(rng.standard_normal((16, 16, 1)))
        out = ag.conv2d(x, Tensor(rng.standard_normal((3, 3, 1, 4))),
                        stride=2, pad=1)
        assert out.shape == (8, 8, 4)

    def test_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((8, 8, 2)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 3, 2, 4)), requires_grad=True)

        def loss():
            return ag.tsum(ag.conv2d(x, k, stride=1, pad=1))

        assert_grad_matches(loss, x, rel_tol=1e-4)
        assert_grad_matches(loss, k, rel_tol=1e-4)

    def test_gradcheck_strided(self, rng):
        x = Tensor(rng.standard_normal((8, 8, 3)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 3, 3, 2)), requires_grad=True)

        def loss():
            return sum_of_squares(ag.conv2d(x, k, stride=2, pad=1))

        assert_grad_matches(loss, x, rel_tol=1e-4)
        assert_grad_matches(loss, k, rel_tol=1e-4)

    def test_bias_of_wrong_length_rejected(self):
        with pytest.raises(ag.GraphError, match="bias"):
            ag.conv2d(Tensor(np.ones((4, 4, 1))), Tensor(np.ones((1, 1, 1, 3))),
                      bias=Tensor(np.ones(2)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ag.GraphError):
            ag.conv2d(Tensor(np.ones((4, 4, 1))), Tensor(np.ones((2, 2, 1, 1))))

    @given(conv_cases())
    @example((3, 2, 0, 6, 8, 2, 3, False, False, 0))   # the last row and column fill no window
    @example((3, 2, 1, 8, 6, 2, 3, False, False, 1))   # both trailing pad rows are dropped
    @example((3, 1, 1, 5, 5, 2, 3, True, True, 2))     # a full layer: bias and ReLU
    @settings(max_examples=150, deadline=None)
    def test_forward_and_gradients_match_direct_loop(self, case):
        k, stride, pad, h, w, cin, cout, with_bias, relu, seed = case
        gen = np.random.default_rng(seed)
        x = Tensor(gen.standard_normal((h, w, cin)), requires_grad=True)
        kernel = Tensor(gen.standard_normal((k, k, cin, cout)), requires_grad=True)
        bias = Tensor(gen.standard_normal(cout), requires_grad=True) if with_bias else None
        out = ag.conv2d(x, kernel, stride=stride, pad=pad, bias=bias, relu=relu)
        g = gen.standard_normal(out.shape)
        dot_loss((out,), (g,)).backward()
        want, gx, gk, gb = conv_oracle(x.data, kernel.data, stride, pad, g,
                                       bias=None if bias is None else bias.data, relu=relu)
        assert out.shape == want.shape
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kernel.grad, gk, rtol=0, atol=1e-12)
        if bias is not None:
            np.testing.assert_allclose(bias.grad, gb, rtol=0, atol=1e-12)

    @given(conv_cases(), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_block_equals_each_image_alone(self, case, n_images):
        """A (B, H, W, C) block under no_grad gives every image the output
        it gets alone, float for float (the sign of zero included)."""
        k, stride, pad, h, w, cin, cout, with_bias, relu, seed = case
        gen = np.random.default_rng(seed)
        images = gen.standard_normal((n_images, h, w, cin))
        kernel = Tensor(gen.standard_normal((k, k, cin, cout)))
        bias = Tensor(gen.standard_normal(cout)) if with_bias else None
        with ag.no_grad():
            block = ag.conv2d(Tensor(images), kernel, stride, pad, bias, relu).data
            alone = np.stack([ag.conv2d(Tensor(image), kernel, stride, pad, bias, relu).data
                              for image in images])
        assert block.shape == alone.shape
        assert (block == alone).all()
        assert block.tobytes() == alone.tobytes()

    @given(conv_cases(), st.integers(1, 5))
    @example((3, 2, 1, 8, 8, 2, 3, True, True, 3), 4)     # a backbone layer, four images
    @settings(max_examples=100, deadline=None)
    def test_block_gradients_equal_per_image_accumulated(self, case, n_images):
        """One backward through a block gives the kernel and bias the
        gradients of one backward per image accumulated in image order, and
        each image its own input gradient, float for float."""
        k, stride, pad, h, w, cin, cout, with_bias, relu, seed = case
        gen = np.random.default_rng(seed)
        images = gen.standard_normal((n_images, h, w, cin))
        kernel = Tensor(gen.standard_normal((k, k, cin, cout)), requires_grad=True)
        bias = Tensor(gen.standard_normal(cout), requires_grad=True) if with_bias else None
        ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        upstream = gen.standard_normal((n_images, ho, wo, cout))

        def loss(x, g):
            return dot_loss((ag.conv2d(x, kernel, stride, pad, bias, relu),), (g,))

        block, alone = block_and_per_image_grads(
            loss, images, (upstream,), [kernel] + ([bias] if with_bias else []))
        assert block == alone

    def test_image_gradient_skipped_without_grad_or_tape(self, rng):
        data = rng.standard_normal((8, 6, 2))
        kernel = Tensor(rng.standard_normal((3, 3, 2, 3)), requires_grad=True)
        g = rng.standard_normal((4, 3, 3))

        def grads(x):
            kernel.zero_grad()
            out = ag.conv2d(x, kernel, stride=2, pad=1)
            dot_loss((out,), (g,)).backward()
            return out, kernel.grad.copy()

        image = Tensor(data.copy())
        out, gk = grads(image)
        assert out._backward(g)[0] is None
        assert image.grad is None
        tracked = Tensor(data.copy(), requires_grad=True)
        _, gk_tracked = grads(tracked)
        np.testing.assert_array_equal(gk, gk_tracked)
        # an input on a tape still gets its gradient, without requires_grad
        base = Tensor(data.copy(), requires_grad=True)
        grads(ag.add(base, Tensor(np.zeros_like(data))))
        np.testing.assert_array_equal(base.grad, tracked.grad)


def anchor_scores_oracle(fe, w, b, g):
    """Direct-loop forward and gradients of anchor_scores for an upstream
    gradient g of the output's shape."""
    h, wd, _ = fe.shape
    na, d = w.shape
    out, gfe = np.zeros((h, wd, na)), np.zeros_like(fe)
    gw, gb = np.zeros_like(w), np.zeros_like(b)
    for y in range(h):
        for x in range(wd):
            for a in range(na):
                gb[a] += g[y, x, a]
                out[y, x, a] = b[a]
                for i in range(d):
                    c = a * d + i
                    out[y, x, a] += fe[y, x, c] * w[a, i]
                    gfe[y, x, c] = g[y, x, a] * w[a, i]
                    gw[a, i] += g[y, x, a] * fe[y, x, c]
    return out, gfe, gw, gb


class TestAnchorScores:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_forward_and_gradients_match_direct_loop(self, h, wd, na, d, seed):
        gen = np.random.default_rng(seed)
        fe = Tensor(gen.standard_normal((h, wd, na * d)), requires_grad=True)
        w = Tensor(gen.standard_normal((na, d)), requires_grad=True)
        b = Tensor(gen.standard_normal(na), requires_grad=True)
        out = ag.anchor_scores(fe, w, b)
        g = gen.standard_normal((h, wd, na))
        dot_loss((out,), (g,)).backward()
        want, gfe, gw, gb = anchor_scores_oracle(fe.data, w.data, b.data, g)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fe.grad, gfe, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, gb, rtol=0, atol=1e-12)

    @given(conv_cases(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_block_gradients_equal_per_image_accumulated(self, case, n_images):
        """As for conv2d: a block's w and b gradients are those of one
        backward per image accumulated in image order, float for float."""
        _, _, _, h, wd, na, d, _, _, seed = case
        gen = np.random.default_rng(seed)
        fe = gen.standard_normal((n_images, h, wd, na * d))
        w = Tensor(gen.standard_normal((na, d)), requires_grad=True)
        b = Tensor(gen.standard_normal(na), requires_grad=True)
        upstream = gen.standard_normal((n_images, h, wd, na))
        block, alone = block_and_per_image_grads(
            lambda x, g: dot_loss((ag.anchor_scores(x, w, b),), (g,)), fe, (upstream,), [w, b])
        assert block == alone


class TestBackward:
    def test_sum_grad_is_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        ag.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_loss_node_hands_each_parent_its_gradient(self, rng):
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        w = Tensor(rng.standard_normal(3), requires_grad=True)
        gx, gw = rng.standard_normal(5), rng.standard_normal(3)
        loss = ag.loss_node(2.5, (x, w), (gx, gw))
        assert float(loss.data) == 2.5
        loss.backward()
        assert x.grad.tobytes() == gx.tobytes()
        assert w.grad.tobytes() == gw.tobytes()

    def test_add_of_two_shapes_rejected(self):
        with pytest.raises(ag.GraphError, match="one shape"):
            ag.add(Tensor(np.ones(3)), Tensor(np.ones((3, 1))))

    def test_non_scalar_rejected(self):
        with pytest.raises(ag.GraphError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_accumulate_adds_a_stack_one_image_at_a_time(self, rng):
        """A gradient with one more axis than the tensor is a block's
        per-image gradients: _accumulate adds them into grad one at a time,
        in stack order, giving the bytes of one accumulation per image, into
        a fresh grad and into one already held. Entries of -0.0 leave +0.0
        as they do one at a time, and a column of 1e16, 1, -1e16, 1 adds to
        1 in that order, where (1e16 + 1) + (-1e16 + 1) gives 0."""
        stack = rng.standard_normal((4, 3, 5))
        stack[:, 0, 0] = -0.0
        stack[::2, 0, 1] = -0.0
        stack[:, 1, 0] = [1e16, 1.0, -1e16, 1.0]
        block, alone = Tensor(np.zeros((3, 5))), Tensor(np.zeros((3, 5)))
        for _ in range(2):
            block._accumulate(stack)
            for g in stack:
                alone._accumulate(g)
            assert block.grad.tobytes() == alone.grad.tobytes()
        assert block.grad[1, 0] == 1.0
        assert block.grad[0, 0] == 0.0 and not np.signbit(block.grad[0, 0])

    def test_repeated_backward_accumulates(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        loss = ag.tsum(x)
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * np.ones(4))

    def test_diamond_graph(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        y = ag.add(x, x)
        ag.tsum(ag.add(y, y)).backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 4.0))

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "vector"])
    @pytest.mark.parametrize("x_first", [True, False], ids=["x-first", "w-first"])
    def test_shared_gradient_array_not_aliased(self, shape, x_first):
        """add hands one gradient array to both of its parents. A second
        contribution to x must not be added into that array in place, which
        would also change the gradient of x's sibling w."""
        x = Tensor(np.ones(shape), requires_grad=True)
        w = Tensor(np.ones(shape), requires_grad=True)
        xx = ag.add(x, x)
        ag.tsum(ag.add(xx, w) if x_first else ag.add(w, xx)).backward()
        np.testing.assert_array_equal(x.grad, np.full(shape, 2.0))
        np.testing.assert_array_equal(w.grad, np.ones(shape))

    def test_no_grad_suppresses_tape(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        with ag.no_grad():
            out = ag.tsum(ag.add(x, x))
        assert out._backward is None and out._prev == ()


@pytest.mark.parametrize("seed", range(20))
def test_every_op_matches_finite_differences(seed):
    """Composite graph touching every differentiable op, 20 random seeds: a
    loss computed in NumPy (weighted squared errors of a few probabilities
    and rows of the conv output) joins the tape through
    model.heads_loss_node, whose sigmoid backward it also checks."""
    gen = np.random.default_rng(seed)
    x = Tensor(gen.standard_normal((6, 6, 2)), requires_grad=True)
    k = Tensor(gen.standard_normal((3, 3, 2, 4)), requires_grad=True)
    w = Tensor(gen.standard_normal((2, 2)), requires_grad=True)
    b = Tensor(gen.standard_normal(2), requires_grad=True)
    kb = Tensor(gen.standard_normal(4), requires_grad=True)
    t_cls = gen.uniform(0, 1, 6)
    t_reg = gen.standard_normal((3, 4))
    rows = [2, 4, 6]

    def loss():
        f = ag.conv2d(x, k, stride=1, pad=1, bias=kb, relu=True)   # (6, 6, 4)
        s = ag.anchor_scores(f, w, b)                        # (6, 6, 2)
        probs = 1.0 / (1.0 + np.exp(-s.data.reshape(72)))
        rows_of_f = f.data.reshape(36, 4)
        e_cls = probs[1:7] - t_cls
        e_reg = rows_of_f[rows] - t_reg
        g_probs, g_reg = np.zeros(72), np.zeros((36, 4))
        g_probs[1:7] = 0.6 * e_cls
        g_reg[rows] = 0.4 * e_reg
        value = 0.3 * (e_cls * e_cls).sum() + 0.2 * (e_reg * e_reg).sum()
        batch = mdl.ProposalBatch(probs, rows_of_f, rows_of_f, logits=s, regression=f)
        return ag.add(mdl.heads_loss_node(batch, value, g_probs, g_reg), ag.tsum(s))

    for tensor in (x, k, kb, w, b):
        assert_grad_matches(loss, tensor, rel_tol=1e-3)
