import numpy as np

from protometric.optim import OptimizerSpec, make_optimizer


def test_sgd_momentum_two_steps():
    # v <- mu * v + g, p <- p - lr * v; the values are exact in binary
    opt = make_optimizer(OptimizerSpec("sgd", lr=0.5, momentum=0.5))
    p = np.array([1.0, -2.0])
    opt.step({"w": p}, {"w": np.array([1.0, 2.0])})
    np.testing.assert_array_equal(p, [0.5, -3.0])
    opt.step({"w": p}, {"w": np.array([4.0, -2.0])})
    np.testing.assert_array_equal(opt.v["w"], [4.5, -1.0])
    np.testing.assert_array_equal(p, [-1.75, -2.5])
