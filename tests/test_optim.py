import numpy as np
import pytest

from leakysinelu.errors import ShapeError
from leakysinelu.optim import Adadelta, Adam


def hand_adam(theta, grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Reference recurrence written out step by step."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    return theta


def hand_adadelta(theta, grads, lr=1.0, rho=0.9, eps=1e-6):
    eg = ed = 0.0
    for g in grads:
        eg = rho * eg + (1 - rho) * g * g
        delta = -np.sqrt(ed + eps) / np.sqrt(eg + eps) * g
        ed = rho * ed + (1 - rho) * delta * delta
        theta = theta + lr * delta
    return theta


class TestAdam:
    def test_first_step(self):
        params = {"w": np.zeros(1)}
        opt = Adam()
        state = opt.init_state(params)
        opt.step(state, params, {"w": np.ones(1)})
        assert params["w"][0] == pytest.approx(-0.001 / (1.0 + 1e-8), rel=1e-12)

    def test_zero_gradient_leaves_params(self):
        params = {"w": np.full(3, 0.5)}
        opt = Adam()
        state = opt.init_state(params)
        for _ in range(5):
            opt.step(state, params, {"w": np.zeros(3)})
        assert np.array_equal(params["w"], np.full(3, 0.5))

    def test_matches_hand_recurrence(self):
        grads = [2.0, 2.0, -1.0, 0.5]
        params = {"w": np.zeros(1)}
        opt = Adam()
        state = opt.init_state(params)
        for g in grads:
            opt.step(state, params, {"w": np.array([g])})
        assert params["w"][0] == pytest.approx(hand_adam(0.0, grads), rel=1e-12)
        assert state.step_count == len(grads)

    def test_shape_mismatch(self):
        params = {"w": np.zeros(2)}
        opt = Adam()
        state = opt.init_state({"w": np.zeros(3)})
        with pytest.raises(ShapeError):
            opt.step(state, params, {"w": np.zeros(2)})


class TestAdadelta:
    def test_first_step(self):
        params = {"w": np.zeros(1)}
        opt = Adadelta()
        state = opt.init_state(params)
        opt.step(state, params, {"w": np.ones(1)})
        expected = -np.sqrt(1e-6) / np.sqrt(0.1 + 1e-6)
        assert params["w"][0] == pytest.approx(expected, rel=1e-12)
        assert params["w"][0] == pytest.approx(-3.1623e-3, rel=1e-4)

    def test_zero_gradient_leaves_params(self):
        params = {"w": np.full(4, -1.5)}
        opt = Adadelta()
        state = opt.init_state(params)
        opt.step(state, params, {"w": np.zeros(4)})
        assert np.array_equal(params["w"], np.full(4, -1.5))

    def test_matches_hand_recurrence(self):
        grads = [1.0, -2.0, 0.3, 0.3, -0.8]
        params = {"w": np.zeros(1)}
        opt = Adadelta()
        state = opt.init_state(params)
        for g in grads:
            opt.step(state, params, {"w": np.array([g])})
        assert params["w"][0] == pytest.approx(hand_adadelta(0.0, grads), rel=1e-12)

    def test_update_opposes_gradient(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=50)}
        opt = Adadelta()
        state = opt.init_state(params)
        for _ in range(10):
            g = rng.normal(size=50)
            g[g == 0.0] = 1.0
            before = params["w"].copy()
            opt.step(state, params, {"w": g})
            moved = params["w"] - before
            assert np.all(np.sign(moved) == -np.sign(g))


@pytest.mark.parametrize("opt_cls", [Adam, Adadelta])
@pytest.mark.parametrize("built_for", [
    {"w": np.zeros(3)},
    {"u": np.zeros(2)},
    {"w": np.zeros(2), "b": np.zeros(1)},
], ids=["other-shape", "other-name", "extra-name"])
def test_state_for_other_parameters_rejected(opt_cls, built_for):
    params = {"w": np.zeros(2)}
    opt = opt_cls()
    state = opt.init_state(built_for)
    with pytest.raises(ShapeError):
        opt.step(state, params, {"w": np.ones(2)})
    assert state.step_count == 0 and np.array_equal(params["w"], np.zeros(2))


def test_state_of_the_other_optimizer_rejected():
    params = {"w": np.zeros(2)}
    state = Adam().init_state(params)
    with pytest.raises(ShapeError):
        Adadelta().step(state, params, {"w": np.ones(2)})
