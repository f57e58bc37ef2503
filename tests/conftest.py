import importlib.util
import os
import sys
import tracemalloc

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

from capnet import matlin
from capnet.network import Dataset, Layer, Network


# every norm kind a ball can take, with Schatten exponents on both sides of 2
NORM_KINDS = [matlin.SPECTRAL, matlin.FROBENIUS, matlin.ROWS_L2_SUM, matlin.ROWS_L1_MAX,
              matlin.schatten(1), matlin.schatten(1.5), matlin.schatten(2), matlin.schatten(4)]


def kind_id(kind):
    return kind.tag if kind.p is None else f"schatten{kind.p:g}"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def traced_peak_mib(fn) -> float:
    """The peak of the memory that tracemalloc sees (numpy reports its
    arrays to it) while fn runs, over what was held when it started, in MiB;
    fn runs once before, so that one-time set-up is not counted."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def make_net(weights, activations=None, input_dim=None):
    """Network from a list of weight arrays; default all-ReLU hidden layers."""
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    if activations is None:
        activations = ["relu"] * (len(weights) - 1) + [None]
    layers = tuple(Layer(weight=w, activation=a) for w, a in zip(weights, activations))
    return Network(layers=layers, input_dim=input_dim or weights[0].shape[1])


def sphere_points(rng, m, dim, radius=1.0):
    pts = rng.standard_normal((m, dim))
    pts *= radius / np.linalg.norm(pts, axis=1, keepdims=True)
    return Dataset(points=pts)


def load_perfbench(name):
    """Import perfbench/<name>.py without writing a bytecode cache there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module
