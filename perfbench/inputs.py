"""Benchmark inputs, generated with numpy only.

The network and datasets are built here rather than through
``capnet.verify.random_net`` so that a change to capnet's own seeding helpers
cannot shift what the benchmark measures.  Inputs form a pool of POOL input
sets, each with recorded reference outputs; the workload seed draws the order
in which a run visits the pool, cycle after cycle.
"""

from __future__ import annotations

import json
import os

import numpy as np

# The reference net: 4 layers of shapes 7x6, 6x7, 5x6 and 1x5, ReLU hidden
# layers, scalar output; m = 32 Gaussian points in dimension 6.
SHAPES = ((7, 6), (6, 7), (5, 6), (1, 5))
M_POINTS = 32
INPUT_DIM = 6

# Reference outputs exist for this many input sets.  The cost of an ascent
# differs up to 2.3-fold between input sets, so the pool is small enough that
# a run of an ascent workload cycles through it several times and weighs
# every set nearly equally: with 32 sets each run saw another subset, which
# widened the run-to-run spread of wall_s by about half.
POOL = 8


def sequence(seed: int) -> list[int]:
    """The order in which a run with this workload seed visits the pool."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 2]))
    return [int(i) for i in rng.permutation(POOL)]


def _ascends(weights) -> bool:
    """True when the ascent's deterministic restart starts uphill.

    That restart sets every row of the first layer to the sign-weighted data
    correlation and keeps the later layers, so the net computes
    h(x) * W4 relu(W3 relu(W2 1)) for a nonnegative h.  When that factor is
    not positive the objective starts negative, the ascent drives the net to
    the zero function within a few steps and the remaining steps project
    nothing, so the ascent workloads would not measure what they are for.
    """
    v = np.ones(weights[0].shape[0])
    for w in weights[1:-1]:
        v = np.maximum(w @ v, 0.0)
    return float((weights[-1] @ v)[0]) > 0.0


def generate(entry: int) -> tuple[dict, dict, int]:
    """Network JSON object, dataset JSON object and CLI --seed of a pool entry.

    The network is the same for every entry; the entry draws the data points
    and the --seed passed to the commands.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[1712, 0]))
    while True:
        weights = [rng.standard_normal(shape) for shape in SHAPES]
        if _ascends(weights):
            break
    layers = []
    for j, w in enumerate(weights):
        layer = {"rows": w.shape[0], "cols": w.shape[1],
                 "data": [float(v) for v in w.ravel()]}
        if j < len(weights) - 1:
            layer["activation"] = "relu"
        layers.append(layer)
    net = {"input_dim": INPUT_DIM, "layers": layers}
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[1712, 1, entry]))
    data = {"points": rng.standard_normal((M_POINTS, INPUT_DIM)).tolist()}
    cli_seed = int(rng.integers(1, 2**31))
    return net, data, cli_seed


def write(entry: int, directory: str) -> tuple[str, str, int]:
    """Write the entry's network and dataset files; returns their paths and
    the CLI --seed."""
    net, data, cli_seed = generate(entry)
    os.makedirs(directory, exist_ok=True)
    net_path = os.path.join(directory, "net.json")
    data_path = os.path.join(directory, "data.json")
    for path, obj in ((net_path, net), (data_path, data)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
            fh.write("\n")
    return net_path, data_path, cli_seed
