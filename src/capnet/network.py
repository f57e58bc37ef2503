"""Feedforward network model: layered composition x -> W_d s(W_{d-1} ... s(W_1 x)).

A network is an ordered tuple of layers, each a weight matrix plus an
activation tag; the final layer applies no activation.  Supported tags are
``relu`` and ``identity`` (element-wise, 1-Lipschitz, positive-homogeneous)
and ``max_to_scalar`` (vector -> largest coordinate; 1-Lipschitz, positive-
homogeneous, output dimension 1).  Networks, layers and datasets are
immutable after construction and evaluation is pure.

Layer indices in the public API are 1-based throughout.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import matlin
from .errors import NumericalError, ParseError, ShapeError

ACTIVATION_TAGS = ("relu", "identity", "max_to_scalar")
ELEMENTWISE_TAGS = ("relu", "identity")


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The generator for spawn key ``key`` under master seed ``seed``.

    Every per-index stream (samples, restarts, points, trials) is this
    generator's stream (``_index_streams`` and ``sphere_points`` derive many
    of them at once), so it depends only on (seed, key), never on what was
    drawn before.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), reproduced by _index_streams.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash step; returns the word and the next constant.

    value is a Python int or a uint64 array of words below 2**32, so every
    product stays below 2**64 and the mask wraps it to 32 bits.
    """
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of an integer."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@functools.cache
def _hashed_words() -> type:
    """The ISeedSequence that hands PCG64 one index's 4 hashed uint64 words, built
    on first use so that importing capnet leaves numpy.random unimported."""

    @dataclass
    class HashedWords(np.random.bit_generator.ISeedSequence):
        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return HashedWords


def _index_words(seed: int, key: tuple[int, ...], count: int) -> np.ndarray:
    """The (count, 4) uint64 words from which numpy seeds the PCG64 of
    ``_rng(seed, *key, i)``, row i for i < count.

    The SeedSequence pool of every index is hashed in one vectorised pass:
    the hash constants depend only on a word's position, and the index is the
    last entropy word.  Raises NumericalError if the words of index 0 are not
    those of numpy's SeedSequence.
    """
    if count <= 0:
        return np.empty((0, 4), dtype=np.uint64)
    if count > 1 << 32:
        raise ValueError(f"at most 2**32 per-index streams, got {count}")
    seed_words = _words(seed)
    entropy = (seed_words + [0] * (4 - len(seed_words))
               + [w for k in key for w in _words(k)]
               + [np.arange(count, dtype=np.uint64)])
    const, pool = _INIT_A, []
    for word in entropy[:4]:
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[4:]:
        for dst in range(4):
            h, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    const, out = _INIT_B, []
    for k in range(8):
        word, const = _hashmix(pool[k % 4], const, _MULT_B)
        out.append(word)
    words = np.stack([out[2 * j] | out[2 * j + 1] << 32 for j in range(4)], axis=1)
    want = np.random.SeedSequence(seed, spawn_key=(*key, 0)).generate_state(4, np.uint64)
    if not np.array_equal(words[0], want):
        raise NumericalError(f"seed words differ from numpy {np.__version__}'s SeedSequence")
    return words


def _seeded(words: np.ndarray) -> np.random.Generator:
    """numpy's generator on the PCG64 numpy seeds with one row of ``_index_words``."""
    return np.random.Generator(np.random.PCG64(_hashed_words()(words)))


def _index_streams(seed: int, key: tuple[int, ...], count: int):
    """An iterator of generators, for i < count, in the states of
    ``_rng(seed, *key, i)``: ``_seeded`` on row i of ``_index_words``."""
    return map(_seeded, _index_words(seed, key, count))


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with XSL-RR output,
# reproduced by _pcg64_raw on uint64 halves.  Every constant is a np.uint64 so
# that numpy 1.x's value-based casting cannot promote a uint64 array to float64.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32, _LO32 = np.uint64(32), np.uint64(_MASK32)
_ONE, _EIGHT, _NINE, _N64 = np.uint64(1), np.uint64(8), np.uint64(9), np.uint64(64)
_LOW63, _LOW52, _LOW8 = np.uint64(63), np.uint64((1 << 52) - 1), np.uint64(0xFF)
_ROT = np.uint64(122 - 64)  # XSL-RR rotates by the state's top 6 bits
# raw words drawn per block of sphere points; bounds the block's arrays to a few MB
_SPHERE_BLOCK_WORDS = 1 << 16
# above this dimension numpy's per-point generator draws sphere points faster:
# 1.5% of draws leave the ziggurat fast path, so more points are drawn twice
# (a quarter at dimension 20) while the vectorised words cost more per point
_FAST_NORMALS_MAX_DIM = 16


def _mul128(hi, lo, c_hi, c_lo):
    """(hi, lo) * (c_hi, c_lo) mod 2**128 on uint64 halves: the low halves'
    full product is taken in 32-bit limbs for its carry into the high half."""
    a1, a0, b1, b0 = lo >> _U32, lo & _LO32, c_lo >> _U32, c_lo & _LO32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LO32) + (p10 & _LO32)
    carry = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return carry + hi * c_lo + lo * c_hi, lo * c_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_raw(words: np.ndarray, n: int) -> np.ndarray:
    """(count, n) uint64: the first n outputs of numpy's PCG64 seeded with
    each row of ``words`` (initial state words 0-1, stream words 2-3, high
    half first), as ``random_raw(n)`` gives them.

    Seeding sets s = M*(u + inc) + inc for the state words u; each output
    steps the LCG s -> M*s + inc once and takes XSL-RR of the state.
    """
    m_hi, m_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)
    inc_hi, inc_lo = words[:, 2] << _ONE | words[:, 3] >> _LOW63, words[:, 3] << _ONE | _ONE
    s_hi, s_lo = _add128(*_mul128(*_add128(words[:, 0], words[:, 1], inc_hi, inc_lo), m_hi, m_lo),
                         inc_hi, inc_lo)
    out = np.empty((len(words), n), dtype=np.uint64)
    for col in out.T:
        s_hi, s_lo = _add128(*_mul128(s_hi, s_lo, m_hi, m_lo), inc_hi, inc_lo)
        x, rot = s_hi ^ s_lo, s_hi >> _ROT
        col[:] = x >> rot | x << (_N64 - rot & _LOW63)
    return out


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables for ``standard_normal``, read off numpy's own
    generator once per process: per layer idx, the width ``wi[idx]`` and a
    bound below which a 52-bit ``rabs`` takes the fast path (0 where none is
    confirmed, so that every draw of that layer goes to numpy).

    A probe sets PCG64 to a state whose next word carries (idx, rabs) and
    counts only if numpy stepped exactly once, i.e. took the fast path.
    ``wi[idx]`` is the draw at rabs = 1; a bound b stands only once rabs = b - 1
    was accepted, so it never exceeds numpy's own and a wrong guess costs
    speed, never bits.
    """
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    inverse = pow(_PCG_MULT, -1, 1 << 128)

    def fast(idx: int, rabs: int):
        # with inc 1 one step lands on the word itself: rotation 0, halves XOR to it
        word = rabs << 9 | idx
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": (word - 1) * inverse % (1 << 128), "inc": 1}}
        value = gen.standard_normal()
        return value if bits.state["state"]["state"] == word else None

    wi, bound = np.zeros(256), np.zeros(256, dtype=np.uint64)
    for idx in range(256):
        wi[idx] = fast(idx, 1) or 0.0
    for idx in map(int, np.flatnonzero(wi)):
        lo, hi = 1, 1 << 52  # rabs lo is accepted; rabs hi is past the 52 bits
        # numpy's bound is 2**52 times the ratio of adjacent widths, to within a unit
        guess = int(2.0 ** 52 * wi[idx - 1] / wi[idx]) - 1 if idx > 1 else 0
        if lo < guess < hi:
            lo, hi = (guess, guess + 1) if fast(idx, guess) is not None else (lo, guess)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fast(idx, mid) is not None else (lo, mid)
        bound[idx] = lo + 1
    wi.flags.writeable = bound.flags.writeable = False  # shared by every call
    return wi, bound


def _fast_normals(words: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out[i]`` with ``standard_normal`` of the PCG64 seeded by
    ``words[i]``: the raw words of every stream come from one vectorised pass
    (``_pcg64_raw``) and go through numpy's ziggurat fast path
    (``_ziggurat``); a point with any draw outside it is drawn whole by numpy's
    own generator.  Points go in blocks of ``_SPHERE_BLOCK_WORDS`` words.

    Raises NumericalError if index 0's raw words, or the normals of the first
    point that takes the fast path, are not numpy's.
    """
    count, dim = out.shape
    block, checked = max(1, _SPHERE_BLOCK_WORDS // dim), False
    for start in range(0, count, block):
        seeds, rows = words[start:start + block], out[start:start + block]
        raw = _pcg64_raw(seeds, dim)
        if start == 0 and not np.array_equal(
                raw[0], _seeded(seeds[0]).bit_generator.random_raw(dim)):
            raise NumericalError(f"raw words differ from numpy {np.__version__}'s PCG64")
        wi, bound = _ziggurat()  # after the check: never probe a PCG64 that differs
        # numpy's ziggurat word: layer in bits 0-7, sign in bit 8, rabs in bits 9-60
        idx, rabs = (raw & _LOW8).astype(np.intp), raw >> _NINE & _LOW52
        np.multiply(rabs, wi[idx], out=rows)
        np.negative(rows, out=rows, where=(raw >> _EIGHT & _ONE).astype(bool))
        fast = (rabs < bound[idx]).all(axis=1)
        if not checked and fast.any():
            j = int(fast.argmax())
            if not np.array_equal(rows[j], _seeded(seeds[j]).standard_normal(dim)):
                raise NumericalError(
                    f"normals differ from numpy {np.__version__}'s standard_normal")
            checked = True
        for i in np.flatnonzero(~fast):
            _seeded(seeds[i]).standard_normal(out=rows[i])


def sphere_points(dim: int, count: int, seed: int, key: tuple[int, ...] = ()) -> np.ndarray:
    """(count, dim) unit vectors; point i is drawn from ``_rng(seed, *key, i)``.

    The normals are exactly those of ``SeedSequence(seed, spawn_key=(*key, i))``
    -> PCG64 -> ``standard_normal``, with the seed words of all points derived
    in one vectorised pass.  Up to ``_FAST_NORMALS_MAX_DIM`` the normals are
    drawn as whole-array passes (``_fast_normals``); above it numpy's generator
    draws each point, which is then quicker: more points would leave the
    vectorised fast path and be drawn twice.  A zero draw falls back to the
    first basis vector.
    """
    if dim < 1 or count < 0:
        raise ValueError(f"need dimension >= 1 and count >= 0, got dim={dim}, count={count}")
    pts = np.empty((count, dim))
    words = _index_words(seed, key, count)
    if dim <= _FAST_NORMALS_MAX_DIM:
        _fast_normals(words, pts)
    else:
        for row, w in zip(pts, words):
            _seeded(w).standard_normal(out=row)
    # each row's ddot, as np.linalg.norm takes it; a summed square can differ by 1 ulp
    norm = np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0])
    zero = norm == 0
    norm[zero] = 1.0
    pts /= norm[:, None]
    pts[zero] = np.eye(dim)[0]
    return pts


def activation_batch(tag: str, z: np.ndarray) -> np.ndarray:
    """Apply an activation to a batch of pre-activations (rows are samples;
    a leading stack axis may hold one batch per weight set)."""
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "identity":
        return z
    if tag == "max_to_scalar":
        return z.max(axis=-1, keepdims=True)
    raise ValueError(f"unknown activation tag {tag!r}")


@dataclass(frozen=True)
class Layer:
    """One layer: a weight matrix and the activation applied after it.

    activation is None only on the final layer of a network.
    """

    weight: np.ndarray
    activation: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "weight", matlin.as_matrix(self.weight))
        if self.activation is not None and self.activation not in ACTIVATION_TAGS:
            raise ValueError(f"unknown activation tag {self.activation!r}")

    @property
    def out_dim(self) -> int:
        # max_to_scalar collapses the layer output to a scalar
        return 1 if self.activation == "max_to_scalar" else self.weight.shape[0]


@dataclass(frozen=True)
class Network:
    """A feedforward network; depth d = number of layers."""

    layers: tuple[Layer, ...]
    input_dim: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ShapeError("a network needs at least one layer")
        if self.input_dim < 1:
            raise ShapeError(f"input_dim must be positive, got {self.input_dim}")
        if self.layers[-1].activation is not None:
            raise ShapeError("the final layer must not carry an activation")
        expect = self.input_dim
        for j, layer in enumerate(self.layers, start=1):
            rows, cols = layer.weight.shape
            if cols != expect:
                raise ShapeError(
                    f"layer {j} expects input dimension {cols}, previous output is {expect}"
                )
            if j < len(self.layers) and layer.activation is None:
                raise ShapeError(f"layer {j} is not final and must carry an activation")
            expect = layer.out_dim

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def width(self) -> int:
        return max(max(l.weight.shape) for l in self.layers)

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


def _run_layers(weights, acts, a):
    """Apply each matrix then its activation (None applies none) to the rows
    of a; returns the output and every layer's input and pre-activation.

    A weight may be a stack (n, rows, cols), one matrix per weight set: from
    that layer on every array gains the leading axis of length n, and slice
    i is what the weights of set i give alone."""
    inputs, preacts = [], []
    for w, act in zip(weights, acts):
        inputs.append(a)
        z = a @ w.swapaxes(-1, -2)
        preacts.append(z)
        a = z if act is None else activation_batch(act, z)
    return a, inputs, preacts


def sub_forward_batch(net: Network, b: int, r: int, x: np.ndarray) -> np.ndarray:
    """Evaluate layers b..r (1-based, inclusive) on a batch of inputs.

    Applies each layer's matrix then its activation, except no activation
    after layer r's matrix.
    """
    d = net.depth
    if not (1 <= b <= r <= d):
        raise ShapeError(f"layer range [{b}, {r}] out of bounds for depth {d}")
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    cols = net.layers[b - 1].weight.shape[1]
    if a.shape[1] != cols:
        raise ShapeError(f"layer {b} expects input dimension {cols}, got {a.shape[1]}")
    layers = net.layers[b - 1:r]
    acts = [l.activation for l in layers[:-1]] + [None]
    return _run_layers([l.weight for l in layers], acts, a)[0]


def sub_forward(net: Network, b: int, r: int, x) -> np.ndarray:
    """Single-input version of :func:`sub_forward_batch`."""
    return sub_forward_batch(net, b, r, np.asarray(x, dtype=np.float64)[None, :])[0]


def forward_batch(net: Network, x: np.ndarray) -> np.ndarray:
    return sub_forward_batch(net, 1, net.depth, x)


def forward(net: Network, x) -> np.ndarray:
    return sub_forward(net, 1, net.depth, x)


def lipschitz_product(net: Network, start: int = 1) -> float:
    """Product of spectral norms over layers start..d (1-based, inclusive).

    An upper bound on the Lipschitz constant of the sub-network from layer
    start to the output.
    """
    if not 1 <= start <= net.depth:
        raise ShapeError(f"layer range [{start}, {net.depth}] out of bounds for depth {net.depth}")
    prod = 1.0
    for layer in net.layers[start - 1:]:
        prod *= matlin.matrix_norm(layer.weight, matlin.SPECTRAL)
    return prod


@dataclass(frozen=True)
class NormProfile:
    """Per-layer norms and their aggregates for one network.

    gamma is the product of spectral norms, schatten_product the product of
    Schatten-p norms for the declared p, frobenius_product the product of
    Frobenius norms.  ratio_max is max_j rows_l2_sum(j)/spectral(j); it is
    None (with degenerate=True) when some layer is all zeros.
    """

    p: float
    spectral: tuple[float, ...]
    frobenius: tuple[float, ...]
    schatten: tuple[float, ...]
    rows_l2_sum: tuple[float, ...]
    rows_l1_max: tuple[float, ...]
    gamma: float
    schatten_product: float
    frobenius_product: float
    ratio_max: float | None
    degenerate: bool

    @property
    def depth(self) -> int:
        return len(self.spectral)

    @property
    def rows_l1_max_product(self) -> float:
        return float(np.prod(self.rows_l1_max))


def override_products(prof: NormProfile, gamma: float | None,
                      schatten: float | None) -> NormProfile:
    """prof with what-if spectral (Gamma) and Schatten (M) norm products in
    place of the measured ones; an override must be finite and > 0, and the
    per-layer norms are kept."""
    for name, v in (("Gamma", gamma), ("M", schatten)):
        if v is not None and not 0.0 < v < math.inf:
            raise ValueError(f"override of {name} must be finite and > 0, got {v}")
    return replace(prof, gamma=prof.gamma if gamma is None else float(gamma),
                   schatten_product=(prof.schatten_product if schatten is None
                                     else float(schatten)))


def profile(net: Network, p: float = 2.0) -> NormProfile:
    """Norm profile for a Schatten exponent p in [1, matlin.MAX_SCHATTEN_P] or inf.

    The layers of one shape are one stack, each norm one call on it; each slice
    has the bits of the call on that layer alone (its weight in C order)."""
    kind = matlin.schatten(p)
    shapes = {}
    for j, layer in enumerate(net.layers):
        shapes.setdefault(layer.weight.shape, []).append(j)
    norms = np.empty((5, net.depth))
    for idx in shapes.values():
        w = np.stack([net.layers[j].weight for j in idx])
        sv = matlin.singular_values(w)
        norms[:, idx] = (matlin.singular_norm(sv, matlin.SPECTRAL),
                         matlin.matrix_norm(w, matlin.FROBENIUS), matlin.singular_norm(sv, kind),
                         matlin.matrix_norm(w, matlin.ROWS_L2_SUM),
                         matlin.matrix_norm(w, matlin.ROWS_L1_MAX))
    spec, frob, schat, r21, r1inf = map(tuple, norms.tolist())
    degenerate = 0.0 in spec
    ratio = None if degenerate else max(r / s for r, s in zip(r21, spec))
    return NormProfile(float(p), spec, frob, schat, r21, r1inf, gamma=float(np.prod(spec)),
                       schatten_product=float(np.prod(schat)),
                       frobenius_product=float(np.prod(frob)), ratio_max=ratio,
                       degenerate=degenerate)


@dataclass(frozen=True)
class Dataset:
    """A finite sample of equal-dimension points; radius is the largest norm."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ParseError("a dataset needs a non-empty 2-D point array")
        if not np.all(np.isfinite(pts)):
            raise ParseError("dataset points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def radius(self) -> float:
        return float(np.sqrt((self.points * self.points).sum(axis=1)).max())


# ---------------------------------------------------------------------------
# Strict JSON file formats
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    keys = set(obj)
    unknown = keys - allowed
    if unknown:
        raise ParseError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ParseError(f"{where}: missing field(s) {sorted(missing)}")


def network_to_obj(net: Network) -> dict:
    layers = []
    for j, layer in enumerate(net.layers, start=1):
        rows, cols = layer.weight.shape
        entry = {"rows": rows, "cols": cols, "data": [float(v) for v in layer.weight.ravel()]}
        if j < net.depth:
            entry["activation"] = layer.activation
        layers.append(entry)
    return {"input_dim": net.input_dim, "layers": layers}


def network_from_obj(obj) -> Network:
    if not isinstance(obj, dict):
        raise ParseError("network: top level must be an object")
    _require_keys(obj, {"input_dim", "layers"}, {"input_dim", "layers"}, "network")
    if not isinstance(obj["input_dim"], int) or isinstance(obj["input_dim"], bool):
        raise ParseError("network: input_dim must be an integer")
    if not isinstance(obj["layers"], list) or not obj["layers"]:
        raise ParseError("network: layers must be a non-empty array")
    n = len(obj["layers"])
    layers = []
    for j, entry in enumerate(obj["layers"], start=1):
        where = f"network layer {j}"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object")
        is_last = j == n
        allowed = {"rows", "cols", "data"} | (set() if is_last else {"activation"})
        _require_keys(entry, allowed, allowed, where)
        rows, cols = entry["rows"], entry["cols"]
        for name, v in (("rows", rows), ("cols", cols)):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ParseError(f"{where}: {name} must be a positive integer")
        data = entry["data"]
        if not isinstance(data, list) or len(data) != rows * cols:
            raise ParseError(f"{where}: data must hold exactly rows*cols = {rows * cols} numbers")
        try:
            w = matlin.as_matrix(np.reshape([float(v) for v in data], (rows, cols)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
        act = None if is_last else entry["activation"]
        if not is_last and act not in ACTIVATION_TAGS:
            raise ParseError(f"{where}: unknown activation {act!r}")
        layers.append(Layer(weight=w, activation=act))
    try:
        return Network(layers=tuple(layers), input_dim=obj["input_dim"])
    except ShapeError as exc:
        raise ParseError(f"network: {exc}") from exc


def dataset_to_obj(data: Dataset) -> dict:
    return {"points": [[float(v) for v in row] for row in data.points]}


def dataset_from_obj(obj) -> Dataset:
    if not isinstance(obj, dict):
        raise ParseError("dataset: top level must be an object")
    _require_keys(obj, {"points"}, {"points"}, "dataset")
    pts = obj["points"]
    if not isinstance(pts, list) or not pts:
        raise ParseError("dataset: points must be a non-empty array")
    width = None
    for i, row in enumerate(pts, start=1):
        if not isinstance(row, list):
            raise ParseError(f"dataset point {i}: must be an array of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"dataset point {i}: length {len(row)} differs from {width}")
    try:
        return Dataset(points=np.asarray(pts, dtype=np.float64))
    except (ParseError, ValueError, OverflowError) as exc:
        raise ParseError(f"dataset: {exc}") from exc


def _load(path: str, from_obj):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return from_obj(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _save(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_network(path: str) -> Network:
    return _load(path, network_from_obj)


def save_network(net: Network, path: str) -> None:
    _save(network_to_obj(net), path)


def load_dataset(path: str) -> Dataset:
    return _load(path, dataset_from_obj)


def save_dataset(data: Dataset, path: str) -> None:
    _save(dataset_to_obj(data), path)
