"""Tests for the dense-network engine.

The backward pass is checked against central finite differences, the policy
head against quadrature of its own density, the optimizers against single-step
arithmetic, and checkpoints against exact array round-trips.  The flat
parameter buffers (one per net or policy), the parameter-only and input-only
backward forms, and the block-wise optimizer steps and soft update are checked
bit for bit against the per-array code in ``scalar_reference``.
"""

import math

import numpy as np
import pytest
import scalar_reference as ref

from srnoma.agents import soft_update
from srnoma.nn import (
    BLOCK,
    LOG_STD_MAX,
    LOG_STD_MIN,
    Adam,
    GaussianPolicy,
    LaneState,
    Mlp,
    NonFiniteGradientError,
    Sgd,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
)


# (state_dim, action_dim, hidden, block) of the actor nets of A7's scene (PPO
# and A3C, then TD3), A8's, and the default config's (PPO and A3C, then TD3),
# each block an episode
ACTOR_SHAPES = [(72, 39, (64, 64), 25), (72, 39, (32, 32), 25), (12, 12, (8,), 4),
                (592, 170, (128, 128), 200), (592, 170, (400, 300), 200)]


def finite_difference_grads(net, x, grad_out, eps=1e-6):
    """Central differences of sum(forward(x) * grad_out) per parameter."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            hi = float(np.sum(net.forward(x) * grad_out))
            p[idx] = orig - eps
            lo = float(np.sum(net.forward(x) * grad_out))
            p[idx] = orig
            g[idx] = (hi - lo) / (2.0 * eps)
            it.iternext()
        grads.append(g)
    return grads


# ===========================================================================
# forward pass
# ===========================================================================


class TestForward:
    def test_hand_computed_single_layer(self):
        net = Mlp((2, 1), rng=np.random.default_rng(0))
        net.weights[0][...] = [[2.0, -1.0]]
        net.biases[0][...] = [0.5]
        got = net.forward(np.array([3.0, 4.0]))
        np.testing.assert_allclose(got, [2.5])  # 6 - 4 + 0.5

    def test_hand_computed_hidden_layer(self):
        net = Mlp((1, 1, 1), rng=np.random.default_rng(0))
        net.weights[0][...] = [[1.0]]
        net.biases[0][...] = [0.0]
        net.weights[1][...] = [[2.0]]
        net.biases[1][...] = [-1.0]
        got = net.forward(np.array([0.5]))
        np.testing.assert_allclose(got, [2.0 * math.tanh(0.5) - 1.0], rtol=1e-15)

    def test_batch_and_single_agree(self):
        net = Mlp((3, 5, 2), rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((4, 3))
        batched = net.forward(x)
        assert batched.shape == (4, 2)
        for row in range(4):
            np.testing.assert_allclose(net.forward(x[row]), batched[row], rtol=1e-15)

    @pytest.mark.parametrize("state_dim, action_dim, hidden, block", ACTOR_SHAPES)
    def test_forward_rows_equals_per_row_forward(self, state_dim, action_dim, hidden, block):
        net = Mlp((state_dim, *hidden, action_dim), rng=np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((block, state_dim))
        got = net.forward_rows(x)
        assert got.shape == (block, action_dim)
        assert got.tobytes() == ref.forward_rows(net, x).tobytes()
        assert net.forward_rows(x[0]).tobytes() == net.forward(x[0]).tobytes()

    @pytest.mark.parametrize("sizes", [(3, 1), (4, 6, 2), (5, 7, 3, 2)])
    def test_one_state_gives_one_output_row(self, sizes):
        net = Mlp(sizes, rng=np.random.default_rng(7))
        x = np.random.default_rng(8).standard_normal(sizes[0])
        got = net.forward(x)
        assert got.shape == (sizes[-1],)
        assert got.tobytes() == net.forward_rows(x).tobytes() == net.forward(x[None])[0].tobytes()

    def test_zero_input_gives_bias_through_tanh(self):
        net = Mlp((2, 3, 1), rng=np.random.default_rng(3))
        net.biases[0][...] = 0.0
        expected = net.biases[1].copy()
        np.testing.assert_allclose(net.forward(np.zeros(2)), expected, rtol=1e-15)

    def test_init_bounds(self):
        net = Mlp((100, 50), rng=np.random.default_rng(4))
        bound = 1.0 / math.sqrt(100)
        assert np.all(np.abs(net.weights[0]) <= bound)
        assert np.all(np.abs(net.biases[0]) <= bound)

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ValueError):
            Mlp((4,), rng=np.random.default_rng(0))

    def test_forward_cached_requires_batch(self):
        net = Mlp((2, 2), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward_cached(np.zeros(2))


# ===========================================================================
# backward pass against finite differences
# ===========================================================================


class TestBackward:
    @pytest.mark.parametrize("sizes", [(2, 3), (3, 4, 2), (2, 8, 8, 1)])
    def test_parameter_gradients_match_finite_differences(self, sizes):
        rng = np.random.default_rng(10)
        net = Mlp(sizes, rng)
        x = rng.standard_normal((5, sizes[0]))
        grad_out = rng.standard_normal((5, sizes[-1]))
        out, cache = net.forward_cached(x)
        analytic, _ = net.backward(cache, grad_out)
        numeric = finite_difference_grads(net, x, grad_out)
        for a, n in zip(ref.split(analytic, net.shapes), numeric):
            np.testing.assert_allclose(a, n, atol=1e-6, err_msg=f"sizes {sizes}")

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = Mlp((3, 6, 2), rng)
        x = rng.standard_normal((2, 3))
        grad_out = rng.standard_normal((2, 2))
        _, cache = net.forward_cached(x)
        _, grad_in = net.backward(cache, grad_out)
        eps = 1e-6
        numeric = np.zeros_like(x)
        for q in range(2):
            for d in range(3):
                bumped = x.copy()
                bumped[q, d] += eps
                hi = float(np.sum(net.forward(bumped) * grad_out))
                bumped[q, d] -= 2 * eps
                lo = float(np.sum(net.forward(bumped) * grad_out))
                numeric[q, d] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(grad_in, numeric, atol=1e-6)

    def test_zero_upstream_gradient_gives_zero(self):
        rng = np.random.default_rng(12)
        net = Mlp((2, 4, 1), rng)
        x = rng.standard_normal((3, 2))
        _, cache = net.forward_cached(x)
        grad, grad_in = net.backward(cache, np.zeros((3, 1)))
        for g in ref.split(grad, net.shapes):
            np.testing.assert_array_equal(g, np.zeros_like(g))
        np.testing.assert_array_equal(grad_in, np.zeros_like(x))

    def test_copy_is_deep_and_load_from_syncs(self):
        rng = np.random.default_rng(13)
        net = Mlp((2, 3, 1), rng)
        dup = net.copy()
        dup.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != dup.weights[0][0, 0]
        net.load_from(dup)
        np.testing.assert_array_equal(net.weights[0], dup.weights[0])


# ===========================================================================
# optimizers
# ===========================================================================


class TestOptimizers:
    def test_sgd_arithmetic(self):
        p = np.array([1.0, -2.0])
        Sgd(lr=0.5).step(p, np.array([2.0, 2.0]))
        np.testing.assert_allclose(p, [0.0, -3.0])

    def test_sgd_rejects_nonfinite(self):
        with pytest.raises(NonFiniteGradientError):
            Sgd(lr=0.1).step(np.zeros(2), np.array([np.nan, 0.0]))

    def test_adam_first_step_is_lr_sized(self):
        # bias correction makes the very first update lr * g/|g| exactly
        p = np.array([1.0])
        opt = Adam(lr=0.01)
        opt.step(p, np.array([123.4]))
        assert math.isclose(p[0], 1.0 - 0.01, rel_tol=1e-6)

    def test_adam_rejects_nonfinite(self):
        with pytest.raises(NonFiniteGradientError):
            Adam(lr=0.1).step(np.zeros(2), np.array([np.inf, 0.0]))

    def test_adam_state_round_trip(self):
        p = np.array([1.0, 2.0])
        opt = Adam(lr=0.1)
        opt.step(p, np.array([0.5, -0.5]))
        opt.step(p, np.array([0.25, 0.25]))
        clone = Adam(lr=0.1)
        clone.load_state_arrays(opt.state_arrays())
        p1, p2 = p.copy(), p.copy()
        g = np.array([1.0, -1.0])
        opt.step(p1, g)
        clone.step(p2, g)
        np.testing.assert_array_equal(p1, p2)

    def test_make_optimizer(self):
        assert isinstance(make_optimizer("sgd", 0.1), Sgd)
        assert isinstance(make_optimizer("adam", 0.1), Adam)
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", 0.1)


    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_nonfinite_last_block_leaves_everything_unchanged(self, kind):
        # the buffer spans several blocks; its gradient's non-finite item sits
        # in the last one, after every other block could have been written
        param = np.linspace(-1.0, 1.0, 3 * BLOCK + 5)
        opt = make_optimizer(kind, 0.1)
        opt.step(param, param.copy())
        kept = param.copy()
        state = {key: np.copy(value) for key, value in opt.state_arrays().items()}
        bad = np.ones_like(param)
        bad[-1] = np.inf
        with pytest.raises(NonFiniteGradientError):
            opt.step(param, bad)
        np.testing.assert_array_equal(param, kept)
        after = opt.state_arrays()
        assert set(after) == set(state)
        for key, value in state.items():
            np.testing.assert_array_equal(after[key], value, err_msg=key)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_misshapen_gradient_is_rejected_before_any_write(self, kind):
        param = np.array([1.0, -2.0, 0.5])
        opt = make_optimizer(kind, 0.1)
        misshapen = [np.ones(2), np.ones(4), np.ones((3, 1)), np.ones((1, 3)), np.float64(1.0)]
        for bad in misshapen:  # on the first step: no moments are made
            with pytest.raises(ValueError, match="gradient of shape"):
                opt.step(param, bad)
        np.testing.assert_array_equal(param, [1.0, -2.0, 0.5])
        assert all(int(value) == 0 for value in opt.state_arrays().values())
        opt.step(param, np.array([0.5, -1.0, 2.0]))
        kept = param.copy()
        state = {key: np.copy(value) for key, value in opt.state_arrays().items()}
        for bad in misshapen:  # on a later step: the moments and t stay
            with pytest.raises(ValueError, match="gradient of shape"):
                opt.step(param, bad)
        np.testing.assert_array_equal(param, kept)
        after = opt.state_arrays()
        assert set(after) == set(state)
        for key, value in state.items():
            np.testing.assert_array_equal(after[key], value, err_msg=key)

    @pytest.mark.parametrize("loaded", [False, True], ids=["stepped", "loaded"])
    def test_adam_rejects_a_buffer_unlike_its_moments_before_any_write(self, loaded):
        opt = Adam(0.1)
        opt.step(np.array([1.0, -2.0, 0.5]), np.array([1.0, 1.0, 1.0]))
        if loaded:  # moments that come from a checkpoint, not from a step
            fresh = Adam(0.1)
            fresh.load_state_arrays(opt.state_arrays())
            opt = fresh
        state = {key: np.copy(value) for key, value in opt.state_arrays().items()}
        param = np.array([1.0, -2.0, 0.5, 3.0])
        with pytest.raises(ValueError, match="got 4 items for moments of 3"):
            opt.step(param, np.ones(4))
        np.testing.assert_array_equal(param, [1.0, -2.0, 0.5, 3.0])
        assert opt.t == 1
        after = opt.state_arrays()
        assert set(after) == set(state) == {"t", "m0", "v0"}
        for key, value in state.items():
            np.testing.assert_array_equal(after[key], value, err_msg=key)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_nonfinite_item_is_rejected(self, kind, bad):
        # one item in the middle of a long buffer: its sum of squares is not
        # finite, and the item-wise check behind it must find the item
        grad = np.full(2 * BLOCK + 7, 1e-3)
        grad[BLOCK + 3] = bad
        param = np.zeros_like(grad)
        with pytest.raises(NonFiniteGradientError):
            make_optimizer(kind, 0.1).step(param, grad)
        assert not param.any()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_finite_items_whose_squares_overflow_are_accepted(self, kind):
        # longer than one block, so the sum-of-squares check runs first
        grad = np.full(BLOCK + 5, 3.0)
        grad[::7] = 1e200
        param = np.zeros_like(grad)
        with np.errstate(over="ignore"):  # the sum of squares and Adam's moment overflow
            assert not np.isfinite(grad @ grad)
            make_optimizer(kind, 1e-300).step(param, grad)  # no NonFiniteGradientError
        assert np.isfinite(param).all()


# ===========================================================================
# flat engine against the per-array reference
# ===========================================================================


def assert_same_bits(got, want, what=""):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape, what
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=what)


def make_optimizers(kind, shapes):
    lr = 0.01 if kind == "sgd" else 0.001
    return make_optimizer(kind, lr, shapes), ref.Sgd(lr) if kind == "sgd" else ref.Adam(lr)


def assert_same_moments(opt, ref_opt):
    """Adam's checkpointed moments equal the reference's per-parameter arrays."""
    state = opt.state_arrays()
    if isinstance(ref_opt, ref.Sgd):
        assert state == {}
        return
    assert int(state["t"]) == ref_opt.t
    assert len(state) == 1 + 2 * len(ref_opt._m)
    for i, (m, v) in enumerate(zip(ref_opt._m, ref_opt._v)):
        assert_same_bits(state[f"m{i}"], m, f"m{i}")
        assert_same_bits(state[f"v{i}"], v, f"v{i}")


class TestFlatEngine:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("sizes, steps", [
        ((5, 3), 50), ((6, 8, 2), 50), ((111, 32, 32, 1), 50), ((20, 64, 64, 4), 50),
        ((111, 400, 300, 1), 3),
    ])
    def test_training_matches_per_array_reference(self, sizes, steps, kind):
        rng = np.random.default_rng(len(sizes) * 1000 + sizes[1])
        net = Mlp(sizes, rng)
        twin = net.copy()
        opt, ref_opt = make_optimizers(kind, net.shapes)
        for step in range(steps):
            x = rng.standard_normal((16, sizes[0]))
            grad_out = rng.standard_normal((16, sizes[-1]))
            cache = net.forward_cached(x)[1]
            grad, grad_in = net.backward(cache, grad_out)
            only_grad, no_grad_in = net.backward(cache, grad_out, inputs=False)
            no_grad, only_grad_in = net.backward(cache, grad_out, params=False)
            assert no_grad_in is None and no_grad is None
            ref_grads, ref_grad_in = ref.mlp_backward(twin, twin.forward_cached(x)[1], grad_out)
            for i, (g, only, r) in enumerate(zip(ref.split(grad, net.shapes),
                                                 ref.split(only_grad, net.shapes), ref_grads)):
                assert_same_bits(g, r, f"step {step} gradient {i}")
                assert_same_bits(only, r, f"step {step} parameter-only gradient {i}")
            assert_same_bits(grad_in, ref_grad_in, f"step {step} input gradient")
            assert_same_bits(only_grad_in, ref_grad_in, f"step {step} input-only gradient")
            opt.step(net.flat, grad)
            ref_opt.step(twin.parameters(), ref_grads)
            assert_same_bits(net.flat, twin.flat, f"step {step} parameters")
        assert_same_moments(opt, ref_opt)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_policy_step_with_log_std_matches_reference(self, kind):
        rng = np.random.default_rng(3)
        pol = GaussianPolicy(Mlp((5, 16, 16, 3), rng), init_log_std=-0.3)
        twin = pol.copy()
        opt, ref_opt = make_optimizers(kind, pol.shapes)
        for step in range(50):
            states = rng.standard_normal((8, 5))
            pres = rng.standard_normal((8, 3))
            coeff = rng.standard_normal(8)
            grad = pol.grad_weighted_log_prob(states, pres, coeff)
            ref_grads = ref.split(twin.grad_weighted_log_prob(states, pres, coeff), twin.shapes)
            opt.step(pol.flat, grad)
            ref_opt.step(twin.parameters(), ref_grads)
            pol.clamp_log_std()
            twin.clamp_log_std()
            for i, (p, q) in enumerate(zip(pol.parameters(), twin.parameters())):
                assert_same_bits(p, q, f"step {step} parameter {i}")
        assert_same_moments(opt, ref_opt)

    def test_soft_update_matches_reference(self):
        rng = np.random.default_rng(4)
        # the second net's buffer spans several blocks
        for sizes in ((7, 32, 32, 2), (111, 400, 300, 1)):
            online = Mlp(sizes, rng)
            target = Mlp(sizes, rng)
            twin = target.copy()
            for _ in range(20):
                online.flat += 0.01 * rng.standard_normal(online.flat.size)
                soft_update(target, online, 0.005)
                ref.soft_update(twin.parameters(), online.parameters(), 0.005)
                assert_same_bits(target.flat, twin.flat, f"sizes {sizes}")

    def test_copy_and_load_from_are_exact(self):
        rng = np.random.default_rng(5)
        net = Mlp((4, 8, 8, 2), rng)
        dup = net.copy()
        assert_same_bits(dup.flat, net.flat)
        assert not np.shares_memory(dup.flat, net.flat)
        other = Mlp((4, 8, 8, 2), rng)
        net.load_from(other)
        for p, q in zip(net.parameters(), other.parameters()):
            assert_same_bits(p, q)
        for n in (net, dup):
            for p in n.weights + n.biases:
                assert np.shares_memory(p, n.flat)

    def test_backward_returns_one_flat_buffer_laid_out_like_flat(self):
        net = Mlp((3, 5, 2), np.random.default_rng(6))
        cache = net.forward_cached(np.ones((2, 3)))[1]
        grad, _ = net.backward(cache, np.ones((2, 2)))
        assert grad.shape == net.flat.shape
        ref_grads, _ = ref.mlp_backward(net, cache, np.ones((2, 2)))
        assert_same_bits(grad, np.concatenate([g.ravel() for g in ref_grads]))
        again, _ = net.backward(cache, np.ones((2, 2)))
        assert not np.shares_memory(again, grad)  # each call owns its buffer


# ===========================================================================
# lane axis: a stacked net against its lanes run one by one
# ===========================================================================


# (sizes, batch): width 1, batch 1, one and two hidden layers, and a buffer of
# both lanes longer than one BLOCK
LANE_CASES = [((3, 1), 1), ((1, 1, 1), 5), ((4, 1, 2), 3), ((5, 8, 2), 1), ((6, 16, 8, 1), 16),
              ((7, 1, 5, 3), 4), ((2, 9, 1, 1), 2), ((40, 300, 120, 1), 8)]
assert Mlp((40, 300, 120, 1), np.random.default_rng(0), lanes=2).flat.size > BLOCK


class TestLanes:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("shared", [False, True], ids=["per-lane-batch", "shared-batch"])
    @pytest.mark.parametrize("sizes, batch", LANE_CASES)
    def test_stacked_net_equals_its_lanes_bit_for_bit(self, sizes, batch, shared, kind):
        seed = sum(sizes) * 10 + batch
        rng = np.random.default_rng(seed)
        nets = [Mlp(sizes, rng) for _ in range(2)]
        stacked = Mlp(sizes, np.random.default_rng(seed), lanes=2)
        # each lane starts as the net made in its turn
        assert_same_bits(stacked.flat, np.concatenate([net.flat for net in nets]))
        lr = 0.01 if kind == "sgd" else 0.001
        opt = make_optimizer(kind, lr, nets[0].shapes)
        opts = [make_optimizer(kind, lr, nets[0].shapes) for _ in nets]
        for step in range(4):
            # one (B, in) batch both lanes read, or one batch per lane
            x = rng.standard_normal((batch, sizes[0]) if shared else (2, batch, sizes[0]))
            xs = [x, x] if shared else list(x)
            grad_out = rng.standard_normal((2, batch, sizes[-1]))
            want = np.stack([net.forward(xi) for net, xi in zip(nets, xs)])
            assert_same_bits(stacked.forward(x), want, f"step {step} forward")
            out, cache = stacked.forward_cached(x)
            passes = [net.forward_cached(xi) for net, xi in zip(nets, xs)]
            assert_same_bits(out, np.stack([o for o, _ in passes]), f"step {step} forward_cached")
            grad, grad_in = stacked.backward(cache, grad_out)
            lanes = [net.backward(c, g) for net, (_, c), g in zip(nets, passes, grad_out)]
            for lane, (lane_grad, lane_grad_in) in enumerate(lanes):
                size = nets[0].flat.size
                got = ref.split(grad[lane * size : (lane + 1) * size], nets[0].shapes)
                for i, (g, w) in enumerate(zip(got, ref.split(lane_grad, nets[0].shapes))):
                    what = "bias sum" if i % 2 else "weight gradient"
                    assert_same_bits(g, w, f"step {step} lane {lane} {what} {i // 2}")
                assert_same_bits(grad_in[lane], lane_grad_in, f"step {step} lane {lane} inputs")
            only_params, _ = stacked.backward(cache, grad_out, inputs=False)
            _, only_inputs = stacked.backward(cache, grad_out, params=False)
            assert_same_bits(only_params, grad)
            assert_same_bits(only_inputs, grad_in)
            opt.step(stacked.flat, grad)
            for net, lane_opt, (lane_grad, _) in zip(nets, opts, lanes):
                lane_opt.step(net.flat, lane_grad)
            assert_same_bits(stacked.flat, np.concatenate([net.flat for net in nets]),
                             f"step {step} parameters")
        for lane, lane_opt in enumerate(opts):
            mine, theirs = opt.state_arrays(lane), lane_opt.state_arrays()
            assert set(mine) == set(theirs)
            for key in theirs:
                assert_same_bits(mine[key], theirs[key], f"lane {lane} {key}")

    def test_lanes_are_views_of_the_stacked_buffer(self):
        stacked = Mlp((3, 4, 2), np.random.default_rng(1), lanes=2)
        assert stacked.weights[0].shape == (2, 4, 3) and stacked.biases[1].shape == (2, 2)
        size = stacked.flat.size // 2
        for lane in range(2):
            view = stacked.lane(lane)
            assert view.lanes == () and np.shares_memory(view.flat, stacked.flat)
            assert_same_bits(view.flat, stacked.flat[lane * size : (lane + 1) * size])
            for p, q in zip(view.parameters(), stacked.parameters()):
                assert_same_bits(p, q[lane])
        stacked.lane(1).biases[0][...] = 7.0
        assert (stacked.biases[0][1] == 7.0).all() and (stacked.biases[0][0] != 7.0).all()
        dup = stacked.copy()
        assert dup.lanes == (2,) and not np.shares_memory(dup.flat, stacked.flat)
        assert_same_bits(dup.flat, stacked.flat)

    @pytest.mark.parametrize("fresh", [False, True], ids=["stepped", "fresh"])
    def test_lane_states_round_trip_adam_moments(self, fresh):
        rng = np.random.default_rng(3)
        stacked = Mlp((3, 4, 1), rng, lanes=2)
        opt = Adam(0.01, stacked.lane(0).shapes)
        for _ in range(3):
            opt.step(stacked.flat, rng.standard_normal(stacked.flat.size))
        saved = [{k: np.copy(v) for k, v in LaneState(opt, lane, 2).state_arrays().items()}
                 for lane in range(2)]
        assert set(saved[0]) == {"t"} | {f"{k}{i}" for k in "mv" for i in range(4)}
        clone = Adam(0.01, stacked.lane(0).shapes)
        if not fresh:  # moments of a step to overwrite
            clone.step(np.zeros(stacked.flat.size), np.ones(stacked.flat.size))
        for lane in range(2):
            LaneState(clone, lane, 2).load_state_arrays(saved[lane])
        p, q = stacked.flat.copy(), stacked.flat.copy()
        grad = rng.standard_normal(stacked.flat.size)
        opt.step(p, grad)
        clone.step(q, grad)
        assert_same_bits(p, q)
        assert clone.t == opt.t == 4


# ===========================================================================
# Gaussian policy head
# ===========================================================================


class TestGaussianPolicy:
    def make_policy(self, state_dim=2, action_dim=1, seed=0, init_log_std=-0.5):
        rng = np.random.default_rng(seed)
        return GaussianPolicy(Mlp((state_dim, 4, action_dim), rng), init_log_std)

    def test_sample_shapes_and_range(self):
        pol = self.make_policy(action_dim=3)
        rng = np.random.default_rng(0)
        action, pre, logp = pol.sample(np.zeros(2), rng)
        assert action.shape == (3,) and pre.shape == (3,)
        assert np.all(np.abs(action) < 1.0)
        assert isinstance(logp, float) and np.isfinite(logp)

    @pytest.mark.parametrize("state_dim, action_dim, hidden, block", ACTOR_SHAPES)
    def test_block_sample_equals_single_samples(self, state_dim, action_dim, hidden, block):
        pol = GaussianPolicy(Mlp((state_dim, *hidden, action_dim), np.random.default_rng(7)))
        states = np.random.default_rng(8).standard_normal((block, state_dim))
        block_rng, single_rng = (np.random.Generator(np.random.Philox(9)) for _ in range(2))
        drawn = pol.sample(states, block_rng)
        singles = [ref.policy_sample(pol, state, single_rng) for state in states]
        assert [part.shape for part in drawn] == [(block, action_dim)] * 2 + [(block,)]
        for part, want in zip(drawn, zip(*singles)):
            assert part.tobytes() == np.array(want).tobytes()
        assert repr(block_rng.bit_generator.state) == repr(single_rng.bit_generator.state)

    def test_density_integrates_to_one(self):
        # quadrature of exp(log_prob) over the squashed support
        pol = self.make_policy(action_dim=1, init_log_std=-0.3)
        state = np.array([0.3, -0.7])
        grid = np.linspace(-1 + 1e-6, 1 - 1e-6, 20001)
        dx = grid[1] - grid[0]
        states = np.tile(state, (grid.size, 1))
        dens = np.exp(pol.log_prob(states, np.arctanh(grid)[:, None]))
        integral = float(np.sum(dens) * dx)
        assert abs(integral - 1.0) < 1e-3, f"density integrates to {integral}"

    def test_log_prob_batch_matches_sample(self):
        pol = self.make_policy(state_dim=3, action_dim=2)
        rng = np.random.default_rng(1)
        states = rng.standard_normal((6, 3))
        pres, logps = [], []
        for s in states:
            _, pre, logp = pol.sample(s, rng)
            pres.append(pre)
            logps.append(logp)
        batch = pol.log_prob(states, np.stack(pres))
        np.testing.assert_allclose(batch, logps, rtol=1e-12)

    def test_log_std_clamp(self):
        pol = self.make_policy()
        pol.log_std[...] = 10.0
        pol.clamp_log_std()
        assert np.all(pol.log_std == LOG_STD_MAX)
        pol.log_std[...] = -10.0
        pol.clamp_log_std()
        assert np.all(pol.log_std == LOG_STD_MIN)

    def test_weighted_log_prob_gradient_matches_finite_differences(self):
        pol = self.make_policy(state_dim=2, action_dim=2, seed=5)
        rng = np.random.default_rng(6)
        states = rng.standard_normal((4, 2))
        pres = rng.standard_normal((4, 2))
        coeff = rng.standard_normal(4)

        def objective():
            return float(np.sum(coeff * pol.log_prob(states, pres)))

        grad = pol.grad_weighted_log_prob(states, pres, coeff)
        assert grad.shape == pol.flat.shape
        *net_grads, log_std_grad = ref.split(grad, pol.shapes)
        eps = 1e-6
        for p, g in zip(pol.net.parameters(), net_grads):
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                hi = objective()
                p[idx] = orig - eps
                lo = objective()
                p[idx] = orig
                np.testing.assert_allclose(
                    g[idx], (hi - lo) / (2 * eps), atol=1e-5,
                    err_msg="net gradient mismatch",
                )
                it.iternext()
        for d in range(2):
            orig = pol.log_std[d]
            pol.log_std[d] = orig + eps
            hi = objective()
            pol.log_std[d] = orig - eps
            lo = objective()
            pol.log_std[d] = orig
            np.testing.assert_allclose(
                log_std_grad[d], (hi - lo) / (2 * eps), atol=1e-5,
                err_msg="log_std gradient mismatch",
            )

    def test_copy_and_load_from(self):
        pol = self.make_policy()
        dup = pol.copy()
        dup.log_std[...] = 1.5
        assert pol.log_std[0] != 1.5
        pol.load_from(dup)
        np.testing.assert_array_equal(pol.log_std, dup.log_std)

    def test_one_flat_buffer_holds_the_net_and_log_std(self):
        net = Mlp((3, 4, 2), np.random.default_rng(2))
        before = net.flat.copy()
        pol = GaussianPolicy(net, init_log_std=-0.3)
        assert pol.net is net
        assert_same_bits(pol.flat, np.concatenate([before, [-0.3, -0.3]]))
        assert_same_bits(pol.flat[: net.flat.size], net.flat)
        assert_same_bits(pol.flat[net.flat.size :], pol.log_std)
        for part in (net.flat, pol.log_std, *pol.parameters()):
            assert np.shares_memory(part, pol.flat)
        pol.flat[0], pol.flat[-1] = 0.25, 1.5  # writes through to the views
        assert net.weights[0][0, 0] == 0.25 and pol.log_std[-1] == 1.5
        dup = pol.copy()
        assert_same_bits(dup.flat, pol.flat)
        assert not np.shares_memory(dup.flat, pol.flat)
        for part in (dup.net.flat, dup.log_std, *dup.parameters()):
            assert np.shares_memory(part, dup.flat) and not np.shares_memory(part, pol.flat)


# ===========================================================================
# checkpoints
# ===========================================================================


class TestCheckpoints:
    def test_exact_round_trip(self, tmp_path):
        arrays = {
            "w": np.random.default_rng(0).standard_normal((3, 2)),
            "b": np.array([1e-300, 1.0, np.pi]),
            "count": np.array(7),
        }
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, arrays, meta={"algo": "ppo", "episode": 12})
        loaded, meta = load_checkpoint(path)
        assert meta["algo"] == "ppo" and meta["episode"] == 12
        assert meta["checkpoint_version"] == 1
        assert set(loaded) == set(arrays)
        for key in arrays:
            np.testing.assert_array_equal(loaded[key], arrays[key])

    def test_no_pickle_needed(self, tmp_path):
        path = tmp_path / "plain.npz"
        save_checkpoint(path, {"x": np.arange(4.0)})
        with np.load(path, allow_pickle=False) as bundle:
            assert "x" in bundle.files


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
