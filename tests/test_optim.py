import numpy as np
import pytest

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


@pytest.mark.parametrize("field, value", [
    ("lr", 0.0), ("lr", np.inf), ("momentum", -3.0), ("momentum", np.inf),
    ("momentum", np.nan), ("beta1", 1.0), ("beta1", -0.1), ("beta1", np.nan),
    ("beta2", 1.5), ("beta2", 1.0), ("eps", 0.0), ("eps", -1.0), ("eps", np.inf),
    ("eps", np.nan)])
def test_spec_rejects_values_the_optimizers_cannot_use(field, value):
    # beta1 = 1 or eps = 0 made Adam's first step non-finite; beta2 > 1,
    # eps < 0 and negative momentum trained on
    for kind in ("adam", "sgd"):
        with pytest.raises(ValueError, match="learning rate" if field == "lr" else field):
            OptimizerSpec(kind, **{field: value})


def test_spec_accepts_the_edges_of_its_ranges():
    OptimizerSpec("adam", beta1=0.0, beta2=0.0, eps=1e-300)
    OptimizerSpec("sgd", momentum=0.0)
    OptimizerSpec("sgd", momentum=5.0)
