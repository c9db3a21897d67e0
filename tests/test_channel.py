"""Unit tests for channels, joint states, capacity, and random coding."""

import contextlib
import functools
import hashlib
import json
import math
import pathlib
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cstar_info import channel as channel_module
from cstar_info.algebra import (
    AtomicAlgebra,
    Element,
    GuardExceeded,
    _pack,
    embed_at,
    tensor_power,
    trace,
)
from cstar_info.channel import (
    CapacityResult,
    Channel,
    Classification,
    ConvergenceError,
    JointState,
    LosslessChannel,
    _decisions,
    _half_table,
    _head_tops,
    _key_dtype,
    _ml_decoder,
    _row_sums,
    _sample_codebook,
    _streamed_trial,
    _uniform_gaps,
    apply_channel,
    bec,
    bsc,
    build_code_and_decoder,
    capacity,
    classify,
    coding_experiment,
    identity_channel,
    info_metrics,
    joint,
    push_state,
    useless_channel,
)
from cstar_info.information import Source, aep_projection, aep_typical_set, entropy, huffman_code
from cstar_info.probability import (
    State,
    chebyshev_tail,
    lln_moment,
    lln_moment_sweep,
    lln_sweep,
    sum_pushforward,
)

RNG = np.random.default_rng(90125)


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def random_channel(m, n, rng=RNG):
    mat = rng.uniform(0.0, 1.0, (m, n))
    return Channel(mat / mat.sum(axis=1, keepdims=True))


def random_state(d, rng=RNG):
    w = rng.uniform(0.0, 1.0, d)
    return State(AtomicAlgebra(d), w / w.sum())


def _block_rows(matrix, codebook):
    # Dense oracle: row j is the block channel C^k conditioned on codeword j;
    # output strings are packed big-endian, matching the dense() ordering of
    # tensor elements.  The rows are one product of the half tables, laid out
    # codeword-fastest like both tables, so the reshape is a view.
    half = (codebook.shape[1] + 1) // 2
    heads = _half_table(matrix, codebook[:, :half])
    tails = _half_table(matrix, codebook[:, half:])
    return (heads[:, :, None] * tails[:, None, :]).reshape(len(codebook), -1)


def _decoder_from_rows(rows):
    # Dense oracle of _ml_decoder: maximum-likelihood decision per output
    # string by argmax over the rows, ties to the lowest codeword index;
    # decoder rows are renormalized restrictions, in one C-ordered table
    # filled and divided in place.
    r, size = rows.shape
    decision = np.argmax(rows, axis=0)
    strings = np.arange(size)
    decoder = np.zeros(rows.shape)
    decoder[decision, strings] = rows[decision, strings]
    masses = decoder.sum(axis=1)
    empty = masses <= 0.0
    if np.any(empty):
        warnings.warn(channel_module._ZERO_MASS)
        # a row without mass is uniform on the strings it owns, or on every
        # string when it owns none
        owned = np.bincount(decision, minlength=r)
        lost = empty[decision]
        decoder[decision[lost], strings[lost]] = 1.0 / owned[decision[lost]]
        decoder[empty & (owned == 0)] = 1.0 / size
    np.divide(decoder, masses[:, None], out=decoder, where=~empty[:, None])
    return decision, decoder, masses


def _trial_metrics(rows, decision, decoder):
    # Dense oracle for one coding trial, from the full r x n**k block and decoder.
    r = rows.shape[0]
    owner = decision[None, :] == np.arange(r)[:, None]
    deviation = float(np.abs(rows - decoder).sum()) / r
    error = float(np.where(~owner, rows, 0.0).sum()) / r
    return deviation, error


# construction -----------------------------------------------------------------


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValueError):
        Channel([[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        Channel([1.0, 0.0])
    c = Channel([[0.25, 0.75]])
    assert c.input_dim == 1 and c.output_dim == 2


def test_builtin_channels():
    assert np.allclose(bsc(0.11).matrix, [[0.89, 0.11], [0.11, 0.89]])
    assert np.allclose(bec(0.1).matrix, [[0.9, 0.1, 0.0], [0.0, 0.1, 0.9]])
    assert np.allclose(identity_channel(3).matrix, np.eye(3))
    assert np.allclose(useless_channel([0.3, 0.7]).matrix, [[0.3, 0.7], [0.3, 0.7]])
    with pytest.raises(ValueError):
        bsc(1.5)


def test_channel_serialization():
    c = bec(0.25)
    data = json.loads(json.dumps(c.to_dict()))
    assert data["input_dim"] == 2 and data["output_dim"] == 3
    assert Channel.from_dict(data) == c
    data["output_dim"] = 2
    with pytest.raises(ValueError):
        Channel.from_dict(data)


# the map and its dual ------------------------------------------------------------


def test_apply_channel_unital_positive():
    c = bsc(0.2)
    out_alg = c.output_algebra()
    assert apply_channel(c, out_alg.identity()).equals(c.input_algebra().identity())
    y = Element(out_alg, [0.4, 1.2])
    assert apply_channel(c, y).is_positive()
    # pullback of an atom gives the conditional probabilities as coefficients
    assert np.allclose(apply_channel(c, out_alg.atom(0)).coeffs, [0.8, 0.2])


@pytest.mark.parametrize("call, error, message", [
    (lambda: apply_channel(bsc(0.2), embed_at(AtomicAlgebra(2).atom(0), 1)), TypeError,
     "apply_channel expects a single-factor Element"),
    (lambda: apply_channel(bsc(0.2), AtomicAlgebra(3).atom(0)), ValueError,
     "element dim 3, channel output dim 2"),
    (lambda: JointState(bsc(0.2), State.uniform(AtomicAlgebra(2)), 2)(
        tensor_power(AtomicAlgebra(4).identity() * 0.5, 3)), ValueError,
     "element level 3 exceeds block length 2"),
], ids=["apply-tensor", "apply-dim", "joint-level"])
def test_channel_maps_refuse_bad_input(call, error, message):
    with pytest.raises(error, match="^%s$" % message):
        call()


def test_push_state_duality():
    for _ in range(50):
        m, n = int(RNG.integers(1, 5)), int(RNG.integers(1, 5))
        c = random_channel(m, n)
        omega = random_state(m)
        q = push_state(c, omega)
        y = Element(c.output_algebra(), RNG.uniform(-2, 2, n) + 1j * RNG.uniform(-2, 2, n))
        assert omega(apply_channel(c, y)) == pytest.approx(q(y), abs=1e-12)



def test_derived_states_admit_inputs_within_tolerance():
    # each input is within EQ_TOL of summing to 1, their product is off by
    # 1.8e-9; the derived states keep the product's weights as they are
    c = useless_channel([0.5000000009, 0.5])
    omega = State(AtomicAlgebra(2), [0.5000000009, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(push_state(c, omega).weights, omega.weights @ c.matrix)
        js = JointState(c, omega, 2)
        assert np.array_equal(js.pair_state.weights, (omega.weights[:, None] * c.matrix).T.ravel())
        assert joint(c, omega, 2).state.level == 2
        assert classify(c, omega).kind == "useless"


# joint states ---------------------------------------------------------------------


def test_joint_state_reads_a_single_factor_element_as_the_pair_state():
    js = JointState(bsc(0.1), State(AtomicAlgebra(2), [0.3, 0.7]), 2)
    x = Element(js.pair_algebra, [1.0, 2.0, 3.0, 4.0])
    assert js(x) == js.pair_state(x)
    assert js(x) == pytest.approx(js(embed_at(x, 1)), abs=1e-15)


def test_joint_state_level_one():
    c = bsc(0.1)
    omega = State(AtomicAlgebra(2), [0.75, 0.25])
    js = JointState(c, omega, 1)
    expected = np.array([[0.75 * 0.9, 0.75 * 0.1], [0.25 * 0.1, 0.25 * 0.9]])
    assert np.allclose(js.weights, expected)
    assert np.allclose(js.marginal_input(), omega.weights)
    assert np.allclose(js.marginal_output(), push_state(c, omega).weights)
    # pair atoms are (output, input) pairs: a = i_out * m + j_in
    assert np.allclose(js.pair_state.weights, expected.T.ravel())


def test_joint_state_kron_structure():
    c = bec(0.3)
    omega = State(AtomicAlgebra(2), [0.6, 0.4])
    js = JointState(c, omega, 2)
    lvl1 = omega.weights[:, None] * c.matrix
    for j1 in range(2):
        for j2 in range(2):
            for i1 in range(3):
                for i2 in range(3):
                    got = js.weights[j1 * 2 + j2, i1 * 3 + i2]
                    assert got == pytest.approx(lvl1[j1, i1] * lvl1[j2, i2], abs=1e-15)
    assert js.weights.sum() == pytest.approx(1.0)


def test_joint_observable_and_density():
    from cstar_info.algebra import embed_at

    c = bsc(0.2)
    omega = State(AtomicAlgebra(2), [0.7, 0.3])
    k = 2
    js, obs, dens = joint(c, omega, k)
    # the observable carries C(y|x) per pair slot
    pair = js.pair_algebra
    vec = obs.dense(k)
    m = c.input_dim
    for a in range(pair.dim):
        for b in range(pair.dim):
            want = c.matrix[a % m, a // m] * c.matrix[b % m, b // m]
            assert vec[a * pair.dim + b] == pytest.approx(want, abs=1e-15)
    # density reproduces the joint state through the trace pairing
    for _ in range(10):
        z = embed_at(Element(pair, RNG.uniform(-1, 1, pair.dim)), 1) * embed_at(
            Element(pair, RNG.uniform(-1, 1, pair.dim)), 2
        )
        assert trace(dens * z, level=k) == pytest.approx(js(z), abs=1e-12)
    # observable expectation: per-slot value, raised to the block length
    per_slot = float(np.sum(omega.weights[:, None] * c.matrix ** 2))
    assert js(obs).real == pytest.approx(per_slot ** k, abs=1e-12)


def test_joint_guard():
    # the joint objects are cheap at any block length; their expansions over
    # the pair strings are what the guards refuse
    c = bsc(0.2)
    omega = State.uniform(AtomicAlgebra(2))
    start = time.perf_counter()
    js, obs, dens = joint(c, omega, 12)
    assert time.perf_counter() - start < 0.05
    assert js.level == 12
    with pytest.raises(GuardExceeded):
        dens.terms  # 4**12 pair strings exceed 2**20
    with pytest.raises(GuardExceeded):
        JointState(c, omega, 13).weights  # 4**13 exceed the dense guard of 2**24


@pytest.mark.parametrize(
    "c, weights, k",
    [(bec(0.3), [0.6, 0.4], 2), (bec(0.3), [0.6, 0.4], 3),
     (Channel([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]), [0.2, 0.3, 0.5], 3)],
)
def test_joint_state_weights_and_marginals_match_kron(c, weights, k):
    omega = State(AtomicAlgebra(len(weights)), weights)
    js = JointState(c, omega, k)
    level_one = omega.weights[:, None] * c.matrix
    assert np.allclose(js.weights, functools.reduce(np.kron, [level_one] * k), rtol=0, atol=1e-15)
    assert np.allclose(js.marginal_input(), functools.reduce(np.kron, [omega.weights] * k))
    output = push_state(c, omega).weights
    assert np.allclose(js.marginal_output(), functools.reduce(np.kron, [output] * k))


def _dense_power(weights, k):
    return tensor_power(Element(AtomicAlgebra(len(weights)), weights), k).dense(k).real


def _weights_through_dense(js):
    # the joint weights as the k-fold pair density's dense() vector, its
    # interleaved (output, input) digits moved into [input string, output string]
    m, k = js.input_state.algebra.dim, js.level
    n = js.pair_algebra.dim // m
    grid = _dense_power(js.pair_state.weights, k).reshape((n, m) * k)
    return grid.transpose([*range(1, 2 * k, 2), *range(0, 2 * k, 2)]).reshape(m ** k, -1)


@pytest.mark.parametrize(
    "c, weights",
    [(bsc(0.2), [0.3, 0.7]), (Channel([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]), [0.2, 0.3, 0.5])],
)
def test_joint_state_weights_equal_the_dense_pair_density(c, weights):
    omega = State(AtomicAlgebra(len(weights)), weights)
    for k in range(1, 7):
        js = JointState(c, omega, k)
        assert np.array_equal(js.weights, _weights_through_dense(js))
        assert np.array_equal(js.marginal_input(), _dense_power(omega.weights, k))
        output = js.pair_state.weights.reshape(-1, len(weights)).sum(axis=1)
        assert np.array_equal(js.marginal_output(), _dense_power(output, k))
        # the marginals are the row and column sums of the weights
        assert np.allclose(js.weights.sum(axis=1), js.marginal_input(), rtol=0, atol=1e-15)
        assert np.allclose(js.weights.sum(axis=0), js.marginal_output(), rtol=0, atol=1e-15)


def test_joint_state_beyond_numpy_axis_limit():
    # one input, one output: a single string pair at any block length
    js = JointState(Channel([[1.0]]), State(AtomicAlgebra(1), [1.0]), 40)
    assert js.weights.tolist() == [[1.0]]
    assert js.marginal_input().tolist() == [1.0]
    assert js.marginal_output().tolist() == [1.0]


def test_joint_objects_are_elementary_tensors():
    c = bsc(0.2)
    omega = State.uniform(AtomicAlgebra(2))
    start = time.perf_counter()
    js, obs, dens = joint(c, omega, 9)
    assert time.perf_counter() - start < 0.05
    assert trace(dens) == pytest.approx(1.0, abs=1e-12)
    assert js(obs).real == pytest.approx(0.68 ** 9, abs=1e-12)  # per slot 0.8^2 + 0.2^2


def test_joint_independence_for_useless():
    from cstar_info.probability import independence_test

    c = Channel([[0.2, 0.5, 0.3], [0.2, 0.5, 0.3]])
    omega = State(AtomicAlgebra(2), [0.35, 0.65])
    js = JointState(c, omega, 1)
    m, n = 2, 3
    out_gen = Element(js.pair_algebra, np.repeat(np.arange(n, dtype=float), m))
    in_gen = Element(js.pair_algebra, np.tile(np.arange(m, dtype=float), n))
    flag, _ = independence_test([out_gen], [in_gen], js.pair_state)
    assert flag
    # a noisy but informative channel correlates the factors
    js2 = JointState(bsc(0.11), omega, 1)
    out2 = Element(js2.pair_algebra, np.repeat(np.arange(2, dtype=float), 2))
    in2 = Element(js2.pair_algebra, np.tile(np.arange(2, dtype=float), 2))
    flag2, witness = independence_test([out2], [in2], js2.pair_state)
    assert not flag2 and witness is not None


# classification --------------------------------------------------------------------


def test_classify_kinds():
    assert classify(bsc(0.11)).kind == "generic"
    assert classify(bsc(0.5)).kind == "useless"
    assert classify(useless_channel([0.3, 0.7])).kind == "useless"
    ident = classify(identity_channel(3))
    assert ident.kind == "lossless"
    assert ident.assignment == (0, 1, 2)
    assert ident.blocks() == {0: (0,), 1: (1,), 2: (2,)}
    fan = classify(Channel([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    assert fan.kind == "lossless"
    assert fan.assignment == (0, 0, 1)
    assert classify(bec(0.2)).kind == "generic"


def test_classify_useless_precedence():
    # a single-input channel is rank 1, hence useless, even though each
    # output column trivially has at most one positive row
    c = Channel([[0.5, 0.5]])
    assert classify(c).kind == "useless"
    one_col = Channel([[1.0], [1.0]])
    assert classify(one_col).kind == "useless"


def test_a_loose_rank_tolerance_warns_when_the_state_shows_dependence():
    # bsc(0.3) has singular values 1 and 0.4, so rank_tol=0.5 calls it rank
    # 1; under the uniform state its joint table is not the product of its
    # margins
    with pytest.warns(UserWarning, match="^rank-1 channel failed the joint independence check$"):
        assert classify(bsc(0.3), State.uniform(AtomicAlgebra(2)), rank_tol=0.5).kind == "useless"


def test_classify_unreachable_output_not_lossless():
    # an output no input can produce breaks the decoding partition
    c = Channel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert classify(c).kind == "generic"


def test_classify_rank_one_iff_zero_information():
    for _ in range(100):
        m, n = int(RNG.integers(2, 4)), int(RNG.integers(2, 4))
        if RNG.uniform() < 0.4:
            c = Channel(np.tile(RNG.dirichlet(np.ones(n)), (m, 1)))
        else:
            c = random_channel(m, n)
        rank1 = np.linalg.matrix_rank(c.matrix, tol=1e-8) == 1
        omega = State.uniform(AtomicAlgebra(m))
        zero_info = info_metrics(c, omega).mutual_information <= 1e-8
        assert (classify(c).kind == "useless") == rank1 == zero_info


def test_classify_lossless_zero_equivocation():
    c = Channel([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7]])
    cls = classify(c)
    assert cls.kind == "lossless"
    for _ in range(20):
        omega = random_state(2)
        metrics = info_metrics(c, omega)
        assert metrics.h_input_given_output == pytest.approx(0.0, abs=1e-12)
        assert metrics.mutual_information == pytest.approx(metrics.h_input, abs=1e-12)


# information metrics ----------------------------------------------------------------


def test_info_metrics_bsc_uniform():
    p = 0.11
    metrics = info_metrics(bsc(p), State.uniform(AtomicAlgebra(2)))
    assert metrics.h_input == pytest.approx(1.0)
    assert metrics.h_output == pytest.approx(1.0)
    assert metrics.h_input_given_output == pytest.approx(h2(p), abs=1e-12)
    assert metrics.mutual_information == pytest.approx(1.0 - h2(p), abs=1e-12)


def test_info_metrics_chain_rule():
    for _ in range(50):
        m, n = int(RNG.integers(2, 5)), int(RNG.integers(2, 5))
        c = random_channel(m, n)
        omega = random_state(m)
        metrics = info_metrics(c, omega)
        w = omega.weights[:, None] * c.matrix
        nz = w[w > 0]
        h_joint = float(-np.sum(nz * np.log2(nz)))
        assert metrics.h_input_given_output == pytest.approx(
            h_joint - metrics.h_output, abs=1e-9
        )
        # symmetry of mutual information
        sym = metrics.h_input + metrics.h_output - h_joint
        assert metrics.mutual_information == pytest.approx(sym, abs=1e-9)
        assert metrics.mutual_information >= -1e-9


def test_info_metrics_useless_zero():
    c = useless_channel([0.2, 0.3, 0.5])
    for _ in range(10):
        metrics = info_metrics(c, random_state(3))
        assert metrics.mutual_information == pytest.approx(0.0, abs=1e-12)


# weights on a small grid: zeros, ties and unequal masses
GRID_WEIGHTS = st.sampled_from([0, 0, 1, 2, 3, 5])


@st.composite
def _channels_and_states(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [draw(st.lists(GRID_WEIGHTS, min_size=n, max_size=n).filter(any)) for _ in range(m)]
    weights = np.array(draw(st.lists(GRID_WEIGHTS, min_size=m, max_size=m).filter(any)), float)
    mat = np.array(rows, dtype=float)
    return Channel(mat / mat.sum(axis=1, keepdims=True)), State(AtomicAlgebra(m), weights / weights.sum())


def _entropy_by_hand(p):
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


@settings(max_examples=150)
@given(_channels_and_states())
def test_info_metrics_identities(case):
    # I = H(X) + H(Y) - H(X,Y) = H(X) - H(X|Y), entropies of the joint by hand
    c, omega = case
    joint_w = omega.weights[:, None] * c.matrix
    h_x = _entropy_by_hand(joint_w.sum(axis=1))
    h_y = _entropy_by_hand(joint_w.sum(axis=0))
    h_xy = _entropy_by_hand(joint_w.ravel())
    got = info_metrics(c, omega)
    assert got.h_input == pytest.approx(h_x, abs=1e-12)
    assert got.h_output == pytest.approx(h_y, abs=1e-12)
    assert got.h_input_given_output == pytest.approx(h_xy - h_y, abs=1e-12)
    assert got.mutual_information == pytest.approx(h_x + h_y - h_xy, abs=1e-12)
    assert got.mutual_information == pytest.approx(h_x - got.h_input_given_output, abs=1e-12)


# capacity ------------------------------------------------------------------------


def test_capacity_bsc():
    result = capacity(bsc(0.11), tol=1e-6)
    assert result.capacity == pytest.approx(1.0 - h2(0.11), abs=1e-6)
    assert np.allclose(result.optimal_input.weights, [0.5, 0.5], atol=1e-6)
    assert result.gap <= 1e-6


def test_capacity_identity_and_useless():
    for d in (2, 3, 5):
        assert capacity(identity_channel(d)).capacity == pytest.approx(
            math.log2(d), abs=1e-9
        )
    assert capacity(useless_channel([0.4, 0.6])).capacity == 0.0


def test_capacity_bec():
    for p in (0.1, 0.5):
        assert capacity(bec(p)).capacity == pytest.approx(1.0 - p, abs=1e-9)


def test_capacity_z_channel_against_grid():
    c = Channel([[1.0, 0.0], [0.5, 0.5]])
    best = 0.0
    for p in np.linspace(0.0, 1.0, 20001)[1:-1]:
        omega = State(AtomicAlgebra(2), [1 - p, p])
        best = max(best, info_metrics(c, omega).mutual_information)
    result = capacity(c, tol=1e-10)
    assert result.capacity == pytest.approx(best, abs=1e-7)
    assert result.capacity > 0.3  # known to be about 0.3219 for this channel


def test_capacity_matches_scipy_on_random_channels():
    from scipy.optimize import minimize

    for _ in range(5):
        m, n = 3, 3
        c = random_channel(m, n)

        def neg_info(x):
            w = np.abs(x) / np.abs(x).sum()
            return -info_metrics(c, State(AtomicAlgebra(m), w)).mutual_information

        best = 0.0
        for _ in range(4):
            x0 = RNG.uniform(0.2, 1.0, m)
            res = minimize(neg_info, x0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
            best = max(best, -res.fun)
        got = capacity(c, tol=1e-10).capacity
        assert got == pytest.approx(best, abs=1e-6)
        assert got >= best - 1e-6  # ascent never undershoots the oracle


def test_capacity_nonconvergence_reports_gap():
    c = Channel([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ConvergenceError, match="gap"):
        capacity(c, tol=1e-12, max_iter=2)


def _plain_channel(n, s):
    # built as the benchmark's capacity-plain jobs build theirs
    mat = np.random.default_rng([n, s]).random((n, n))
    return Channel(mat / mat.sum(axis=1, keepdims=True))


def test_capacity_iterations_on_plain_random_channels():
    # pinned to the bit: the capacity, the gap and the SHA-256 of the
    # optimal weights' bytes
    for (n, s), iterations, value, gap, digest in (
        ((16, 3), 5058, 0.341832824032632, 9.992744964826272e-10,
         "6d6e6d38d1bf9e4e10fd690ad71abcdb41a1378e0041d360f88d49e09e019f31"),
        ((32, 1), 4490, 0.3950343270952885, 9.989324922798914e-10,
         "669b634ead1844c539e9c408b578c1385fa9877e57edc2fef9d374e01140cc52"),
    ):
        result = capacity(_plain_channel(n, s))
        assert result.iterations == iterations
        assert result.capacity == value
        assert result.gap == gap
        assert hashlib.sha256(result.optimal_input.weights.tobytes()).hexdigest() == digest
    # Plain Blahut-Arimoto stalls near a gap of 2e-7 on these two.  A solver
    # that converges on them (ROADMAP item 1) flips both cases together with
    # the benchmark's numeric_failure checks of the same channels.
    for (n, s), gap in (((48, 0), "1.986e-07"), ((64, 1), "2.588e-07")):
        with pytest.raises(ConvergenceError) as caught:
            capacity(_plain_channel(n, s))
        assert str(caught.value) == (
            "Blahut-Arimoto gap %s still above tol 1.000e-09 after 10000 iterations" % gap)


def test_capacity_zero_output_column():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = capacity(Channel([[0.5, 0.5, 0.0], [0.1, 0.9, 0.0]]))
        want = capacity(Channel([[0.5, 0.5], [0.1, 0.9]]))
        assert capacity(bec(0.1)).capacity == pytest.approx(0.9, abs=1e-9)
        assert capacity(identity_channel(4)).capacity == pytest.approx(2.0, abs=1e-9)
        # an entry the channel tolerance admits below zero counts as a zero
        tilted = Channel([[1.0, 0.0, 0.0], [0.0, 1.0 + 1e-10, -1e-10]])
        assert capacity(tilted).capacity == pytest.approx(1.0, abs=1e-9)
    assert got.capacity == want.capacity
    assert (got.iterations, got.gap) == (want.iterations, want.gap)
    assert np.array_equal(got.optimal_input.weights, want.optimal_input.weights)



def test_weights_admitted_below_zero_are_stored_as_zeros():
    state = State(AtomicAlgebra(2), [1 + 1e-10, -1e-10])
    assert state.weights[1] == 0.0 and not np.signbit(state.weights[1])
    # -0.0 is not below zero: a state keeps its bits, a channel stores 0.0
    assert np.signbit(State(AtomicAlgebra(2), [1.0, -0.0]).weights[1])
    assert not np.signbit(Channel([[1.0, -0.0], [0.5, 0.5]]).matrix[0, 1])
    tilted = Channel([[1.0, 0.0, 0.0], [0.0, 1.0 + 1e-10, -1e-10]])
    assert tilted.matrix[1, 2] == 0.0
    # the values the readers gave when each clipped the weights itself
    assert entropy(state) == -1.4426951603302212e-10
    assert huffman_code(state).words == ("1", "0")
    assert tuple(info_metrics(bsc(0.1), state)) == (
        -1.4426951603302212e-10, 0.4689955934919112, 0.0, -1.4426951603302212e-10)
    result = capacity(tilted)
    assert (result.capacity, result.iterations, result.gap) == (1.00000000005, 1, 5.000000413701855e-11)
    assert result.optimal_input.weights.tolist() == [0.5, 0.5]
    with pytest.warns(UserWarning, match="zero mass"):  # every codeword is 0000
        (trial,) = coding_experiment(bsc(0.05), state, 0.5, ks=[4], trials=1, seed=0)
    assert (trial.deviation, trial.error_prob) == (1.1280093750000002, 0.7500000000000001)
    # the tilted row's likelihoods no longer exceed its row sum, so the error is
    # not negative
    (trial,) = coding_experiment(tilted, State.uniform(AtomicAlgebra(2)), 0.5, ks=[4],
                                 trials=1, seed=0)
    assert (trial.deviation, trial.error_prob) == (2.5000002068509275e-10, 0.0)


def test_capacity_survives_an_output_law_that_underflows():
    # A near-uniform extra input, the only one to reach an output of weight
    # 1e-300, decays geometrically; that output's q_j underflows to 0 within
    # a few hundred iterations, and the certificate must stay a number.
    base = _plain_channel(16, 3).matrix
    mat = np.zeros((17, 17))
    mat[:16, :16] = base
    mat[16, :16] = (1.0 - 1e-300) / 16
    mat[16, 16] = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = capacity(Channel(mat))
    assert 0.0 <= result.gap <= 1e-9
    assert result.capacity == pytest.approx(capacity(Channel(base)).capacity, abs=1e-9)
    assert result.optimal_input.weights[16] < 1e-300


def _mutual_information(mat, p):
    # I(p) = sum_ij p_i W_ij log2(W_ij / q_j) over the pairs of positive mass
    q = p @ mat
    joint_w = p[:, None] * mat
    i, j = np.nonzero(joint_w > 0.0)
    return float(np.sum(joint_w[i, j] * np.log2(mat[i, j] / q[j])))


@st.composite
def _channels_and_states(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    grid = st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 3.0])
    mat = np.array([[draw(grid) for _ in range(n)] for _ in range(m)])
    mat[mat.sum(axis=1) == 0.0, 0] = 1.0
    mat /= mat.sum(axis=1, keepdims=True)
    states = []
    for _ in range(draw(st.integers(1, 4))):
        w = np.array([draw(grid) for _ in range(m)])
        w[draw(st.integers(0, m - 1))] += 1.0
        states.append(w / w.sum())
    return Channel(mat).matrix, states


@settings(max_examples=200)
@given(_channels_and_states())
def test_capacity_bounds_mutual_information(case):
    mat, states = case
    tol = 1e-6
    try:
        result = capacity(Channel(mat), tol=tol)
    except ConvergenceError as exc:
        assert "nan" not in str(exc)
        return
    for p in states:
        assert result.capacity >= _mutual_information(mat, p) - tol
    p_star = result.optimal_input.weights
    assert _mutual_information(mat, p_star) == pytest.approx(result.capacity, abs=1e-12)
    q_star = p_star @ mat
    upper = max(
        float(np.sum(row[row > 0.0] * np.log2(row[row > 0.0] / q_star[row > 0.0])))
        for row in mat
    )
    assert upper - result.capacity <= result.gap + 1e-12


# random coding ---------------------------------------------------------------------


def test_block_rows_against_enumeration():
    c = bec(0.3)
    codebook = np.array([[0, 1], [1, 1]])
    rows = _block_rows(c.matrix, codebook)
    assert rows.shape == (2, 9)
    for j, word in enumerate(codebook):
        for y1 in range(3):
            for y2 in range(3):
                want = c.matrix[word[0], y1] * c.matrix[word[1], y2]
                assert rows[j, y1 * 3 + y2] == pytest.approx(want, abs=1e-15)
    assert np.allclose(rows.sum(axis=1), 1.0)


def test_decoder_ties_to_lowest_index():
    rows = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.warns(UserWarning, match="zero mass"):  # the second row owns nothing
        decision, decoder, masses = _decoder_from_rows(rows)
    assert decision.tolist() == [0, 0]
    assert np.allclose(decoder[0], [0.5, 0.5])


def test_build_code_and_decoder_deterministic():
    c = bsc(0.05)
    omega = State.uniform(AtomicAlgebra(2))
    book1, dec1 = build_code_and_decoder(c, omega, k=6, rate=0.5, seed=11)
    book2, dec2 = build_code_and_decoder(c, omega, k=6, rate=0.5, seed=11)
    assert np.array_equal(book1, book2)
    assert dec1.decision == dec2.decision
    assert np.allclose(dec1.matrix, dec2.matrix)
    book3, _ = build_code_and_decoder(c, omega, k=6, rate=0.5, seed=12)
    assert not np.array_equal(book1, book3)
    # floor(2**(k rate)) iid codewords over the input atoms
    assert book1.shape == (8, 6)
    assert set(np.unique(book1)) <= {0, 1}


def test_decoder_is_lossless_channel():
    c = bsc(0.05)
    omega = State.uniform(AtomicAlgebra(2))
    codebook, lossless = build_code_and_decoder(c, omega, k=5, rate=0.4, seed=3)
    cls = classify(lossless.as_channel())
    assert cls.kind == "lossless"
    assert cls.assignment == lossless.decision
    blocks = lossless.blocks()
    assert sorted(y for b in blocks for y in b) == list(range(2 ** 5))


def test_lossless_channel_validation():
    with pytest.raises(ValueError):
        LosslessChannel(np.array([[0.5, 0.4]]), (0, 0))
    with pytest.raises(ValueError):
        LosslessChannel(np.array([[0.5, 0.5]]), (0,))
    with pytest.raises(ValueError):
        LosslessChannel(np.array([[0.5, 0.5]]), (0, 1))
    # the rules of every stochastic matrix, as Channel refuses them
    with pytest.raises(ValueError):
        LosslessChannel(np.array([[np.nan, 1.0]]), (0, 0))
    with pytest.raises(ValueError):
        LosslessChannel(np.array([[1.5, -0.5]]), (0, 0))
    # a decision is an index, not a number to truncate
    for bad in ((0.9, 1.7), (0, 1.0), (0, "1")):
        with pytest.raises(ValueError, match="decision must be an integer in"):
            LosslessChannel(np.eye(2), bad)
    lossless = LosslessChannel(np.eye(2), np.array([0, 1]))
    assert lossless.decision == (0, 1) and type(lossless.decision[1]) is int


def test_deviation_equals_twice_error():
    # exact identity whenever every codeword owns at least one output string,
    # which distinct codewords guarantee for a strictly positive channel
    c = bsc(0.1)
    rng = np.random.default_rng(99)
    for _ in range(5):
        picks = rng.choice(2 ** 6, size=8, replace=False)
        codebook = np.array([[(s >> (5 - t)) & 1 for t in range(6)] for s in picks])
        rows = _block_rows(c.matrix, codebook)
        decision, decoder, masses = _decoder_from_rows(rows)
        assert np.all(masses > 0)
        deviation, error = _trial_metrics(rows, decision, decoder)
        assert deviation == pytest.approx(2.0 * error, abs=1e-12)


def test_repeated_codeword_uniform_fallback():
    c = bsc(0.1)
    codebook = np.array([[0, 1], [0, 1], [1, 0]])
    rows = _block_rows(c.matrix, codebook)
    with pytest.warns(UserWarning):
        decision, decoder, masses = _decoder_from_rows(rows)
    assert 1 not in set(decision.tolist())  # the repeat loses every argmax tie
    assert masses[1] == 0.0
    assert np.allclose(decoder[1], 0.25)
    deviation, error = _trial_metrics(rows, decision, decoder)
    # the repeated word is never decoded as itself, so its whole row is error mass
    assert error >= 1.0 / 3.0
    assert deviation < 2.0 * error


def test_deviation_matches_element_arithmetic():
    # recompute one trial's deviation through algebra operations
    c = bsc(0.15)
    omega = State.uniform(AtomicAlgebra(2))
    codebook, lossless = build_code_and_decoder(c, omega, k=4, rate=0.5, seed=7)
    rows = _block_rows(c.matrix, codebook)
    decision, decoder, _ = _decoder_from_rows(rows)
    deviation, _ = _trial_metrics(rows, decision, decoder)
    out_block = AtomicAlgebra(rows.shape[1])
    total = 0.0
    for j in range(rows.shape[0]):
        diff = Element(out_block, rows[j] - decoder[j])
        total += trace(abs(diff)).real
    assert total / rows.shape[0] == pytest.approx(deviation, abs=1e-12)


def test_perfect_channel_decodes_exactly():
    c = identity_channel(2)
    omega = State.uniform(AtomicAlgebra(2))
    codebook, lossless = build_code_and_decoder(c, omega, k=4, rate=0.5, seed=5)
    assert len({tuple(row) for row in codebook.tolist()}) == len(codebook)
    rows = _block_rows(c.matrix, codebook)
    deviation, error = _trial_metrics(rows, np.asarray(lossless.decision), lossless.matrix)
    assert deviation == pytest.approx(0.0, abs=1e-12)
    assert error == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=200)
@given(st.integers(1, 256), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.9),
       st.integers(1, 12), st.integers(1, 400))
@example(2, 1, 0.0, 12, 400)  # counted
@example(2, 1, 0.0, 2, 2)  # searched: too few draws per input
@example(64, 2, 0.3, 12, 400)  # counted, at the widest
@example(65, 3, 0.3, 12, 400)  # searched: one input wider
@example(256, 4, 0.5, 12, 400)
def test_codebook_draws_are_generator_choice_bit_for_bit(m, seed, zeros, k, r):
    rng = np.random.default_rng(seed)
    weights = rng.random(m) * (rng.random(m) >= zeros)
    weights[rng.integers(m)] += 0.5  # some weight, wherever the zeros fell
    want = np.random.default_rng(seed).choice(m, (r, k), p=weights / weights.sum())
    got = _sample_codebook(np.random.default_rng(seed), weights, k, r)
    assert got.dtype == np.int64
    assert np.array_equal(got, want.astype(np.int64))


@pytest.mark.parametrize("k, r", [(1, 1), (12, 400)])  # searched, counted
def test_a_draw_on_a_threshold_takes_the_next_input(k, r):
    # The first draw u of the seed is in [1/2, 1), so 1 - u and u + (1 - u)
    # are exact and the first normalised cumulative weight is u itself.
    seed = next(s for s in range(100) if np.random.default_rng(s).random() >= 0.5)
    u = np.random.default_rng(seed).random()
    weights = np.array([u, 1.0 - u])
    want = np.random.default_rng(seed).choice(2, (r, k), p=weights / weights.sum())
    got = _sample_codebook(np.random.default_rng(seed), weights, k, r)
    assert got[0, 0] == want[0, 0] == 1
    assert np.array_equal(got, want)


def test_coding_experiment_structure():
    c = bsc(0.05)
    omega = State.uniform(AtomicAlgebra(2))
    results = coding_experiment(c, omega, rate=0.4, ks=[4, 8], trials=3, seed=1)
    assert [r.k for r in results] == [4, 8]
    assert [r.codebook_size for r in results] == [3, 9]
    for r in results:
        assert r.trials == 3 and r.seed == 1
        assert len(r.trial_deviations) == 3
        assert r.deviation == pytest.approx(np.mean(r.trial_deviations))
        assert r.error_prob == pytest.approx(np.mean(r.trial_error_probs))
        assert r.deviation <= 2 * r.error_prob + 1e-12


def _experiment_warnings(**kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (result,) = coding_experiment(**kwargs)
    return result, {str(w.message) for w in caught}


@st.composite
def _trial_groups(draw):
    m = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 6))
    # zero entries, and a mixture row that can own nothing, give zero-mass rows
    grid = st.sampled_from([0.0, 0.0, 0.05, 0.25, 1.0])
    mat = np.array([[draw(grid) for _ in range(n)] for _ in range(m)])
    mat[mat.sum(axis=1) == 0.0, 0] = 1.0
    mat /= mat.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        mat[-1] = mat[:-1].mean(axis=0)
    channel = Channel(mat)
    assume(classify(channel).kind != "useless")
    weights = np.array([draw(grid) for _ in range(m)])
    weights[0] += weights.sum() == 0.0
    # 2 <= r <= m**k codewords, up to every input string: repeats are common
    bits = draw(st.integers(1, int(k * math.log2(m))))
    return dict(channel=channel, omega=State(AtomicAlgebra(m), weights / weights.sum()),
                rate=bits / k, ks=[k], seed=draw(st.integers(0, 2 ** 32)),
                trials=draw(st.integers(2, 4)))


@settings(max_examples=40)
@given(_trial_groups())
def test_trials_of_a_group_are_the_trials_alone(case):
    # trial t of a group, with the tables and gaps of the trials before it,
    # is the experiment of one trial at seed + t, bit for bit, when every
    # later trial opens a new group (a bound of 1 entry) and when groups grow
    trials, seed = case.pop("trials"), case.pop("seed")
    for entries in (1, channel_module.STREAM_BLOCK_ENTRIES):
        with mock.patch.object(channel_module, "STREAM_BLOCK_ENTRIES", entries):
            grouped, warned = _experiment_warnings(trials=trials, seed=seed, **case)
            alone = [_experiment_warnings(trials=1, seed=seed + t, **case) for t in range(trials)]
        assert [(d.hex(), e.hex()) for d, e in
                zip(grouped.trial_deviations, grouped.trial_error_probs)] == \
            [(one.deviation.hex(), one.error_prob.hex()) for one, _ in alone]
        assert warned == set().union(*(w for _, w in alone))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.5, True, np.True_])
def test_counts_and_seeds_refuse_non_integral_numbers(bad):
    # int() would truncate 2.5, overflow on inf and read True as 1
    c = bsc(0.1)
    omega = State.uniform(AtomicAlgebra(2))
    calls = [
        ("max_iter", lambda: capacity(c, max_iter=bad)),
        ("trials", lambda: coding_experiment(c, omega, 0.4, [4], trials=bad)),
        ("k", lambda: coding_experiment(c, omega, 0.4, [4, bad], trials=1)),
        ("seed", lambda: coding_experiment(c, omega, 0.4, [4], trials=1, seed=bad)),
        ("k", lambda: build_code_and_decoder(c, omega, bad, 0.4)),
        ("seed", lambda: build_code_and_decoder(c, omega, 4, 0.4, seed=bad)),
        ("block length", lambda: JointState(c, omega, bad)),
        ("block length", lambda: joint(c, omega, bad)),
        ("d", lambda: identity_channel(bad)),
        ("block length", lambda: aep_typical_set(Source.from_weights([0.7, 0.3]), bad, 0.1)),
        ("block length", lambda: aep_projection(Source.from_weights([0.7, 0.3]), bad, 0.1)),
        ("n", lambda: sum_pushforward([0.0, 1.0], [0.5, 0.5], bad)),
        ("n", lambda: lln_sweep(omega, [2, bad], 2, 0.1)),
        ("n", lambda: lln_moment(omega, bad, 2)),
        ("n", lambda: lln_moment_sweep(omega, [bad], 2)),
        ("n", lambda: chebyshev_tail(omega, bad, 0.1)),
        ("moment order", lambda: lln_sweep(omega, [2], bad, 0.1)),
        ("moment order", lambda: lln_moment(omega, 2, bad)),
        ("moment order", lambda: lln_moment_sweep(omega, [2], bad)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == "%s must be an integer, got %r" % (name, bad)


def test_integral_numbers_of_any_type_count_as_integers():
    c = bsc(0.1)
    omega = State.uniform(AtomicAlgebra(2))
    assert capacity(c, max_iter=np.int64(40)) == capacity(c, max_iter=40.0)
    want = coding_experiment(c, omega, 0.4, [4], trials=2, seed=5)
    got = coding_experiment(c, omega, 0.4, [np.uint8(4)], trials=2.0, seed=np.int32(5))
    assert got == want
    assert (type(got[0].k), type(got[0].trials), type(got[0].seed)) == (int, int, int)


def test_coding_experiment_refuses_useless():
    omega = State.uniform(AtomicAlgebra(2))
    with pytest.raises(ValueError):
        coding_experiment(useless_channel([0.5, 0.5]), omega, 0.4, [4], trials=2)


def test_coding_experiment_warns_above_capacity():
    c = bsc(0.05)
    omega = State.uniform(AtomicAlgebra(2))
    # 15 codewords drawn from 16 strings repeat, and a repeat owns nothing
    with pytest.warns(UserWarning, match="capacity"), \
            pytest.warns(UserWarning, match="zero mass"):
        coding_experiment(c, omega, rate=0.99, ks=[4], trials=2, seed=0)


def test_one_message_for_a_state_that_misses_the_channel_input():
    c = bsc(0.05)
    omega = State.uniform(AtomicAlgebra(3))
    calls = [
        lambda: push_state(c, omega),
        lambda: JointState(c, omega),
        lambda: info_metrics(c, omega),
        lambda: build_code_and_decoder(c, omega, 4, 0.5),
        # rate 0.99 is above capacity: the probe would warn before the refusal
        lambda: coding_experiment(c, omega, 0.99, [4], trials=1),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                call()
        assert str(refused.value) == "state dim 3 does not match channel input dim 2"


def test_coding_experiment_guards():
    c = bsc(0.05)
    omega = State.uniform(AtomicAlgebra(2))
    with pytest.raises(GuardExceeded):
        coding_experiment(c, omega, rate=0.4, ks=[30], trials=1)
    with pytest.raises(ValueError):
        coding_experiment(c, omega, rate=0.1, ks=[4], trials=1)  # fewer than 2 codewords
    with pytest.raises(ValueError):
        build_code_and_decoder(c, omega, k=2, rate=1.2, seed=0)  # 5 words, only 4 strings


@pytest.mark.parametrize("rate, ks, error", [(0.99, (12, 30), GuardExceeded),
                                             (1e308, (4,), GuardExceeded),
                                             (3.0, (4,), ValueError)])
def test_coding_grid_is_refused_before_any_work(rate, ks, error):
    # a block length past the guard, a rate whose codebook is, or a codebook
    # larger than the input strings refuses the whole grid before the
    # capacity probe warns and before any codebook is drawn
    drawn = []

    def spy(*args):
        drawn.append(args)
        return _sample_codebook(*args)

    omega = State.uniform(AtomicAlgebra(2))
    with mock.patch.object(channel_module, "_sample_codebook", spy), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error):
            coding_experiment(bsc(0.05), omega, rate, ks=ks, trials=5)
    assert drawn == [] and caught == []


def test_channel_rejects_non_finite():
    for bad in ([[math.nan, 1.0], [0.5, 0.5]], [[math.inf, -math.inf], [0.5, 0.5]]):
        with pytest.raises(ValueError, match="finite"):
            Channel(bad)


def test_coding_experiment_warns_when_capacity_probe_fails():
    # Blahut-Arimoto needs about 5500 iterations here, past the probe's 2000
    c = Channel([[0.16, 0.33, 0.51], [0.49, 0.08, 0.43], [0.14, 0.29, 0.57]])
    with pytest.raises(ConvergenceError):
        capacity(c, tol=1e-6, max_iter=2000)
    omega = State.uniform(AtomicAlgebra(3))
    with pytest.warns(UserWarning, match="capacity unknown"):
        results = coding_experiment(c, omega, rate=0.5, ks=[2], trials=1, seed=0)
    assert results[0].codebook_size == 2


# streamed trials against the dense oracle ------------------------------------------


def _dense_trial(matrix, codebook):
    rows = _block_rows(matrix, codebook)
    decision, decoder, _ = _decoder_from_rows(rows)
    return _trial_metrics(rows, decision, decoder)


def _warned(fn, *args):
    # the result and the text of each warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


def _check_every_split(matrix, codebook):
    # every cut of the streamed pieces, from one output string to the whole
    # table, gives the dense rows' decisions and likelihoods and the same
    # values bit for bit, near the dense oracle's
    (want_dev, want_err), want_warned = _warned(_dense_trial, matrix, codebook)
    r, k = codebook.shape
    n = matrix.shape[1]
    got = set()
    for tail in range(k + 1):
        with mock.patch.object(channel_module, "STREAM_BLOCK_ENTRIES", r * n ** tail):
            _check_decisions(matrix, codebook)
            (dev, err), warned = _warned(_streamed_trial, matrix, codebook)
        got.add((dev, err))
        assert dev == pytest.approx(want_dev, abs=1e-12)
        assert err == pytest.approx(want_err, abs=1e-12)
        assert warned == want_warned
    assert len(got) == 1


@st.composite
def _coding_cases(draw, max_k=4):
    m = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, max_k))
    # a small grid of weights gives zero entries and exact or rounded ties
    grid = st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.25, 1.0, 3.0])
    mat = np.array([[draw(grid) for _ in range(n)] for _ in range(m)])
    mat[mat.sum(axis=1) == 0.0, 0] = 1.0
    mat /= mat.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        # a mixture of the other rows: a codeword made of it can lose every string
        mat[-1] = mat[:-1].mean(axis=0)
    r = draw(st.integers(2, 8))
    codebook = np.array(
        [[draw(st.integers(0, m - 1)) for _ in range(k)] for _ in range(r)], dtype=np.int64
    )
    for j in draw(st.lists(st.integers(1, r - 1), max_size=3)):
        codebook[j] = codebook[draw(st.integers(0, j - 1))]  # forced repeats
    return Channel(mat).matrix, codebook


@settings(max_examples=60)
@given(_coding_cases())
def test_streamed_trial_matches_dense_oracle(case):
    _check_every_split(*case)


def test_streamed_trial_dominated_codeword():
    # the (0.5, 0.5) input loses every output to a sharper codeword without
    # repeating one, so its decoder row falls back to uniform and its gap
    # comes from the second pass; in the second codebook that dominated word
    # is also repeated
    matrix = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
    for codebook in ([[0], [1], [2]], [[2, 2], [0, 0], [0, 1], [1, 0], [1, 1], [2, 2]]):
        codebook = np.array(codebook)
        _check_every_split(matrix, codebook)
        with pytest.warns(UserWarning, match="zero mass"):
            dev, err = _streamed_trial(matrix, codebook)
        assert dev < 2.0 * err


def test_streamed_trial_workload_shape():
    # the coding experiment's own case: bsc(0.05), rate 0.99, many repeats
    c = bsc(0.05)
    omega = State.uniform(AtomicAlgebra(2))
    with pytest.warns(UserWarning, match="zero mass"):
        codebook, _ = build_code_and_decoder(c, omega, k=9, rate=0.99, seed=4)
    assert len(np.unique(codebook, axis=0)) < len(codebook)
    _check_every_split(c.matrix, codebook)


def test_streamed_trial_with_two_keys_per_codeword():
    # 64**11 = 2**66: each codeword packs into two int64 keys, and words 2
    # and 3 share the first key; words 5 and 9 repeat words 1 and 3
    rng = np.random.default_rng(64)
    flips = rng.choice([0.0, 0.05, 0.5, 0.95, 1.0], size=64)
    matrix = np.column_stack((flips, 1.0 - flips))
    codebook = rng.integers(0, 64, size=(12, 11))
    codebook[0, -1] = 63
    codebook[3] = codebook[2]
    codebook[3, -1] = (codebook[2, -1] + 1) % 64
    codebook[5] = codebook[1]
    codebook[9] = codebook[3]
    assert len(_pack(codebook)) == 2
    _check_every_split(matrix, codebook)


@settings(max_examples=30)
@given(_coding_cases())
def test_streamed_blocks_when_one_string_exceeds_the_block(case):
    # r > STREAM_BLOCK_ENTRIES: each run of the ML pass is one output string
    # and each piece of the gap pass one word
    matrix, codebook = case
    (want_dev, want_err), want_warned = _warned(_dense_trial, matrix, codebook)
    with mock.patch.object(channel_module, "STREAM_BLOCK_ENTRIES", 1):
        runs = list(_decisions(matrix, codebook))
        (dev, err), warned = _warned(_streamed_trial, matrix, codebook)
    assert [run[0].size for run in runs] == [1] * matrix.shape[1] ** codebook.shape[1]
    assert dev == pytest.approx(want_dev, abs=1e-12)
    assert err == pytest.approx(want_err, abs=1e-12)
    assert warned == want_warned


def _memory_case(trials):
    # r = 172,950 codewords over 2**6 output strings: the half tables hold 8
    # strings each, and the whole table would be 11 M likelihoods.
    mat = np.random.default_rng(7).random((16, 2))
    c = Channel(mat / mat.sum(axis=1, keepdims=True))
    omega = State.uniform(AtomicAlgebra(16))
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="not below capacity"), \
                pytest.warns(UserWarning, match="zero mass"):
            (result,) = coding_experiment(c, omega, rate=2.9, ks=[6], trials=trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.codebook_size == 172950
    return result, peak


def test_coding_trial_memory_stays_below_the_table():
    result, peak = _memory_case(trials=1)
    # about 42 MB: the gap pass tabulates only the distinct halves of the
    # types, beside the trial group's half tables
    assert peak < 44 * 2 ** 20
    # the values, bit for bit
    assert result.deviation == 0.9894682274113076
    assert result.error_prob == 0.9997979332373419


def test_trials_sharing_tables_stay_below_the_memory_of_one():
    # the later trials of a block length share the first one's half tables
    # and its 45,928 types' gaps (52,285 after three), and no trial's
    # codebook is held during another
    result, peak = _memory_case(trials=3)
    assert peak < 44 * 2 ** 20
    assert result.trial_deviations[0] == 0.9894682274113076
    assert result.trial_error_probs[0] == 0.9997979332373419


def test_gap_pass_memory_stays_in_pieces_on_a_wide_output():
    # 2 inputs, 64 outputs, k = 4: 2**24 output strings, as many as the
    # guard allows, and codeword 2 repeats codeword 0, so the gap pass needs
    # the gap of its type over 64**4 output strings: the 4,096 x 4,096
    # products of its two half tables, summed in pieces of 64 head strings.
    mat = np.random.default_rng(64).random((2, 64)) ** 3
    matrix = Channel(mat / mat.sum(axis=1, keepdims=True)).matrix
    codebook = _sample_codebook(np.random.default_rng(4), np.array([0.5, 0.5]), 4, 4)
    assert codebook.tolist() == [[1, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 0], [0, 1, 1, 0]]
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="zero mass"):
            dev, err = _streamed_trial(matrix, codebook)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    # the values, bit for bit
    assert (dev, err) == (0.8670866504210195, 0.5056255195845716)


def test_decoder_is_pinned_and_peaks_near_one_table():
    # the decoder table, filled from the streamed pass and taken over
    # uncopied: no dense rows beside it, and no copy of it
    omega = State.uniform(AtomicAlgebra(2))
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="zero mass"):
            _, lossless = build_code_and_decoder(bsc(0.05), omega, k=10, rate=0.99, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lossless.matrix.shape == (955, 1024)
    assert peak <= 1.2 * lossless.matrix.nbytes
    # bit for bit
    digest = hashlib.sha256(lossless.matrix.tobytes()).hexdigest()
    assert digest == "ccdeb4b1307e65c975127477ad170603b2eacef495d8b4c8e15712b66a8a3e6f"
    digest = hashlib.sha256(np.array(lossless.decision, dtype=np.int64).tobytes()).hexdigest()
    assert digest == "6afd6b512399b614f71e6a0a2d46ca737dea867e4955e073db7ecad4609db9e7"


def _pass_widths(matrix, codebook):
    # the words each pass of _streamed_trial runs over: the ML pass's
    # distinct words, then the gap pass's words, one per type
    widths = []

    def decisions(matrix, words, tables=None):
        widths.append(("ml", words.shape[0]))
        return _decisions(matrix, words, tables)

    def gaps(matrix, types, halves=None):
        widths.append(("gap", types.shape[0]))
        return _uniform_gaps(matrix, types, halves)

    with mock.patch.object(channel_module, "_decisions", decisions), \
            mock.patch.object(channel_module, "_uniform_gaps", gaps):
        result = _streamed_trial(matrix, codebook)
    return result, widths


def test_streamed_trial_decodes_distinct_codewords_only():
    c = bsc(0.05)
    omega = State.uniform(AtomicAlgebra(2))
    with pytest.warns(UserWarning, match="zero mass"):
        codebook, _ = build_code_and_decoder(c, omega, k=9, rate=0.99, seed=4)
        _, widths = _pass_widths(c.matrix, codebook)
    words, counts = np.unique(codebook, axis=0, return_counts=True)
    assert len(words) < len(codebook)
    # one pass over the distinct words, then one word per type of the
    # repeated ones; a BSC leaves no word without strings
    types = {tuple(sorted(word)) for word in words[counts > 1].tolist()}
    assert widths == [("ml", len(words)), ("gap", len(types))]


def test_streamed_trial_lone_and_repeated_dominated_words():
    # (0.5, 0.5) is dominated: [2, 2] is repeated and owns nothing, [0, 2] is
    # not repeated and owns nothing, and [0, 0] is repeated; the second pass
    # sums the gap of their three types, (2, 2), (0, 2) and (0, 0), once each
    matrix = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
    codebook = np.array([[2, 2], [0, 0], [0, 2], [0, 1], [1, 0], [2, 2], [1, 1], [0, 0]])
    _check_every_split(matrix, codebook)
    with pytest.warns(UserWarning, match="zero mass"):
        (dev, err), widths = _pass_widths(matrix, codebook)
    assert widths == [("ml", 6), ("gap", 3)]
    assert (dev, err) == (0.42999999999999994, 0.595)  # the all-rows pass, bit for bit


@settings(max_examples=60)
@given(_coding_cases(max_k=6))
def test_uniform_row_gap_is_the_dense_row_gap(case):
    # a row that owns no output string falls back to the uniform decoder row;
    # its gap comes from one word of its type, and must be its own row's gap
    matrix, codebook = case
    rows = _block_rows(matrix, codebook)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        decision, _, masses = _decoder_from_rows(rows)
    fallback = (masses <= 0.0) & (np.bincount(decision, minlength=len(codebook)) == 0)
    mass, owned, gap = _row_sums(matrix, codebook)
    assert np.array_equal(fallback, (mass <= 0.0) & (owned == 0))
    want = np.abs(rows - 1.0 / rows.shape[1]).sum(axis=1)
    assert np.all(np.abs(gap[fallback] - want[fallback]) <= 1e-12)



@settings(max_examples=100)
@given(_coding_cases(max_k=8))
# a uniform row: every likelihood is 3**-7 up to its rounding
@example((np.full((2, 3), 1.0 / 3.0), np.array([[0, 0, 1, 1, 1, 0, 1], [0, 1, 1, 0, 0, 1, 0]])))
def test_half_table_gap_is_the_dense_row_gap(case):
    # the sum over each sorted word's half-table likelihoods against the
    # sum over every output string of its unsorted word's dense row, taken
    # with math.fsum, the same bit for bit at every cut of the pieces: one
    # (type, head string) row, a whole type, and cuts inside a type's head
    # strings.  Beyond the relative bound, the likelihoods themselves
    # differ by their own rounding: k - 1 products per string in a row, in
    # another order of the symbols, over a row of total mass 1.  That is
    # all a gap is when the row is uniform: its exact value is 0.
    matrix, codebook = case
    (m, n), k = matrix.shape, codebook.shape[1]
    rows = _block_rows(matrix, codebook)
    want = np.array([math.fsum(np.abs(row - 1.0 / rows.shape[1]).tolist()) for row in rows])
    types = np.sort(codebook, axis=1)
    got = set()
    for entries in (channel_module.STREAM_BLOCK_ENTRIES, 1, n ** (k // 2), 3 * n ** (k // 2)):
        with mock.patch.object(channel_module, "STREAM_BLOCK_ENTRIES", entries):
            gap = _uniform_gaps(matrix, types)
        got.add(gap.tobytes())
    assert len(got) == 1
    assert np.all(np.abs(gap - want) <= 1e-14 * want + (k + 2 * m * n) * 2.0 ** -53)
    # where every likelihood is 0 the gap counts a word's strings times
    # n**-k: the half tables of a word span each of its n**k output strings
    # once
    with mock.patch.object(channel_module, "STREAM_BLOCK_ENTRIES", 1):
        assert np.allclose(_uniform_gaps(np.zeros((m, n)), types), 1.0, rtol=0.0, atol=1e-14)


@settings(max_examples=60)
@given(_coding_cases(max_k=6))
def test_masses_are_the_owned_sums_of_the_dense_rows(case):
    matrix, codebook = case
    rows = _block_rows(matrix, codebook)
    decision = np.argmax(rows, axis=0)
    want = np.array([math.fsum(rows[j, decision == j].tolist()) for j in range(len(rows))])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mass = _row_sums(matrix, codebook)[0]
    # a sum of `size` nonnegative terms in any order, as in the decoder test
    size = rows.shape[1]
    assert np.all(np.abs(mass - want) <= size * 2.0 ** -53 * want)


def _normalized(rows):
    mat = np.array(rows)
    return Channel(mat / mat.sum(axis=1, keepdims=True)).matrix


def _decoder_by_strings(rows):
    # one output string at a time: the first codeword of greatest likelihood
    # takes the string; a row's mass is the correctly rounded sum of the
    # likelihoods it owns; a row without mass is uniform on the strings it
    # owns, or on every string when it owns none
    r, size = rows.shape
    decision = np.zeros(size, dtype=np.int64)
    decoder = np.zeros((r, size))
    for y in range(size):
        best = 0
        for j in range(1, r):
            if rows[j, y] > rows[best, y]:
                best = j
        decision[y] = best
        decoder[best, y] = rows[best, y]
    masses = np.array([math.fsum(decoder[j]) for j in range(r)])
    for j in range(r):
        block = decision == j
        if masses[j] > 0.0:
            decoder[j] /= masses[j]
        elif block.any():
            decoder[j, block] = 1.0 / block.sum()
        else:
            decoder[j] = 1.0 / size
    return decision, decoder, masses


def _masses_in_string_order(rows):
    # the reference the ML pass must reproduce: per output string, its
    # winner's likelihood added to the winner's mass, one string at a time
    mass = [0.0] * rows.shape[0]
    for y, j in enumerate(np.argmax(rows, axis=0).tolist()):
        mass[j] += float(rows[j, y])
    return np.array(mass)


def _heads_searched(searched):
    # The ML pass with its head search on every run of two heads or more
    # (True) or with every head at once (False): u <= h * nb, so a share of
    # 0 never searches and a share of 1 always does
    return mock.patch.object(channel_module, "SEARCH_OPEN_SHARE", 1.0 if searched else 0.0)


def _check_decisions(matrix, codebook):
    # winners, winning likelihoods and masses bit for bit against the dense
    # rows, masses summed in string order; returns which strings the pass
    # decided from their whole column
    rows = _block_rows(matrix, codebook)
    runs = list(_decisions(matrix, codebook))
    want = np.argmax(rows, axis=0)
    assert np.array_equal(np.concatenate([run[0] for run in runs]), want)
    likelihood = np.concatenate([run[1] for run in runs])
    assert likelihood.tobytes() == rows[want, np.arange(rows.shape[1])].tobytes()
    words = codebook[np.sort(np.unique(codebook, axis=0, return_index=True)[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mass = _row_sums(matrix, words)[0]
    assert mass.tobytes() == _masses_in_string_order(_block_rows(matrix, words)).tobytes()
    return np.concatenate([run[2] for run in runs]), likelihood


# two words of one head whose tail likelihoods differ in the last bit give
# the same product with the head's likelihood
_COLLAPSE = (_normalized([[3.0, 0.25, 0.05], [1.0, 0.05, 0.05]]),
             np.array([[1, 1], [0, 1], [0, 0], [0, 1], [0, 0]]))
# with runs of 30 entries, codewords win strings in several runs, and a sum
# of per-run sums would differ from the sum in string order
_GROUPED = (np.array([[1.0, 0.0, 0.0], [0.4, 0.2, 0.4]]),
            np.array([[0, 1, 0, 0, 1], [0, 0, 0, 0, 0], [1, 1, 0, 0, 1], [1, 0, 0, 0, 0],
                      [1, 1, 1, 0, 1], [1, 0, 1, 0, 0], [1, 1, 0, 1, 1], [0, 0, 1, 1, 1]]))
# output 2 is unreachable, so every string holding it has likelihood 0
_UNREACHABLE = (np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                np.array([[2, 0], [0, 1], [1, 1], [2, 0], [0, 0]]))


# Under the head search, some string stays open past the first stage and
# meets a later head of equal product whose second rounds to it too (the
# last row is the first an ulp apart) ...
_STAGED_TIE = (np.array([[0.125, 0.875], [0.0, 1.0], [0.0, 1.0],
                         [np.nextafter(0.125, 1.0), np.nextafter(0.875, 0.0)]]),
               np.array([[0, 0, 0, 0, 3], [0, 3, 0, 0, 0], [0, 3, 0, 0, 3]]))
# ... or a later head of greater product whose second rounds to it
_STAGED_GAIN = (_normalized([[0.0, 0.05, 0.25], [0.0, 0.05, 0.1]]),
                np.array([[0, 0, 1, 0, 1, 0], [0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1]]))


@pytest.mark.parametrize("entries", [channel_module.STREAM_BLOCK_ENTRIES, 1, 30])
@settings(max_examples=60)
@given(_coding_cases(max_k=6))
@example(_COLLAPSE)
@example(_GROUPED)
@example(_UNREACHABLE)
@example(_STAGED_TIE)
@example(_STAGED_GAIN)
def test_ml_pass_is_the_argmax_of_the_dense_rows(entries, case):
    # with every head at once and with the head search on every run of two
    # heads or more: the same runs bit for bit
    runs = []
    for searched in (False, True):
        with mock.patch.object(channel_module, "STREAM_BLOCK_ENTRIES", entries), \
                _heads_searched(searched):
            _check_decisions(*case)
            runs.append([tuple(r.tobytes() for r in run) for run in _decisions(*case)])
    assert runs[0] == runs[1]


def test_ml_pass_redoes_a_rounding_collapse_and_meets_zero_likelihoods():
    redone, _ = _check_decisions(*_COLLAPSE)
    assert redone.any()
    # the strings no codeword reaches go to word 0, as argmax gives them
    redone, likelihood = _check_decisions(*_UNREACHABLE)
    assert np.any(likelihood == 0.0) and not redone.any()


@contextlib.contextmanager
def _reductions():
    # each max-product reduction of the ML pass while the block runs: the
    # products it forms, whether it is a search stage after the first
    # (heads gathered per open string, not a grid), and (best, winner, redo)
    real, calls = channel_module._max_product, []

    def reduction(heads, top, *operands):
        result = real(heads, top, *operands)
        calls.append((np.broadcast(heads, top).size, heads.ndim == 2, result))
        return result

    with mock.patch.object(channel_module, "_max_product", reduction):
        yield calls


@pytest.mark.parametrize("case, met", [
    (_STAGED_TIE, lambda best, redo: redo & (best > 0.0)),
    (_STAGED_GAIN, lambda best, redo: redo & (best > 0.0)),
    (_UNREACHABLE, lambda best, redo: best == 0.0),
], ids=["tie", "gain", "zero"])
def test_head_search_carries_redone_and_zero_strings_past_its_first_stage(case, met):
    with _heads_searched(True), _reductions() as calls:
        _check_decisions(*case)
    assert any(met(best, redo).any() for _, later, (best, _, redo) in calls if later)


def test_head_search_meets_few_heads_per_string():
    # bsc(0.05) at rate 0.99 and k = 12: the bound decides each output
    # string after about two of its 64 heads (the count, not the time)
    matrix = bsc(0.05).matrix
    codebook = _sample_codebook(np.random.default_rng(12), np.array([0.5, 0.5]), 12,
                                channel_module._codebook_size(12, 0.99, 2, 2, None))
    words = codebook[np.sort(np.unique(codebook, axis=0, return_index=True)[1])]
    with _reductions() as calls:
        strings = sum(run[0].size for run in _decisions(matrix, words))
    assert strings == 2 ** 12 and len(np.unique(words[:, :6], axis=0)) == 64
    assert sum(size for size, _, _ in calls) / strings <= 3.0


def _tops_by_heads(tails, tail, head, h):
    # per head and tail string, one head at a time over its words in index
    # order: the greatest tail likelihood, the first word attaining it and
    # the greatest below it (0 without one)
    nb = tails.shape[1]
    top, second = np.zeros((h, nb)), np.zeros((h, nb))
    top_word = np.zeros((h, nb), dtype=np.int64)
    for g in range(h):
        words = [j for j in range(tail.size) if head[j] == g]
        for b in range(nb):
            values = [float(tails[tail[j], b]) for j in words]
            top[g, b] = max(values)
            top_word[g, b] = words[values.index(top[g, b])]
            second[g, b] = max([v for v in values if v < top[g, b]], default=0.0)
    return top, top_word, second


@st.composite
def _tops_cases(draw):
    # tail likelihoods from a small grid (zeros and exact ties), a table
    # that may hold rows no word uses, and heads of one word or more
    grid = st.sampled_from([0.0, 0.0, 0.1, 0.125, 0.25, 0.25, 0.5, 0.3])
    rows, nb = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    tails = np.array([[draw(grid) for _ in range(nb)] for _ in range(rows)])
    u = draw(st.integers(1, 14))
    h = draw(st.integers(1, u))
    tail = np.array(draw(st.lists(st.integers(0, rows - 1), min_size=u, max_size=u)),
                    dtype=np.int64)
    # every head has a word, as ``_TrialGroup.tables`` gives them
    heads = list(range(h)) + draw(st.lists(st.integers(0, h - 1), min_size=u - h, max_size=u - h))
    head = np.array(draw(st.permutations(heads)), dtype=np.int64)
    return tails, tail, head, h


def _int64_keys(levels, u):
    return np.int64


@pytest.mark.parametrize("entries", [channel_module.STREAM_BLOCK_ENTRIES, 1, 30])
@settings(max_examples=80)
@given(_tops_cases())
# every head has one word; one tail row is never used
@example((np.array([[0.25, 0.0], [0.5, 0.25], [0.0, 0.0]]), np.array([1, 0, 1]),
          np.array([2, 0, 1]), 3))
# one head of tied words, zeros among them
@example((np.array([[0.25, 0.0], [0.25, 0.0]]), np.array([1, 0, 1, 0]), np.zeros(4, np.int64), 1))
def test_head_tops_are_those_of_a_loop_over_each_head(entries, case):
    # with int32 keys and with int64 keys, at every cut of the chunks
    want = _tops_by_heads(*case)
    for key_dtype in (_key_dtype, _int64_keys):
        with mock.patch.object(channel_module, "STREAM_BLOCK_ENTRIES", entries), \
                mock.patch.object(channel_module, "_key_dtype", key_dtype):
            got = _head_tops(*case)
        assert [(x.dtype, x.tobytes()) for x in got] == [(x.dtype, x.tobytes()) for x in want]


def test_key_dtype_is_int32_while_the_keys_fit():
    # keys rank * u + place of `levels` ranks over u words, below levels * u
    top = np.iinfo(np.int32).max
    for levels, u in [(2 ** 15, 2 ** 16 - 1), (1, 2 ** 31 - 1), (2 ** 31 - 1, 1), (3, 5)]:
        assert levels * u <= top and _key_dtype(levels, u) is np.int32
    for levels, u in [(2 ** 15, 2 ** 16), (2, 2 ** 30), (2 ** 31, 1), (3, 2 ** 40)]:
        assert levels * u > top and _key_dtype(levels, u) is np.int64
    # an int64-keyed trial finds the tops of an int32-keyed one
    matrix = bsc(0.05).matrix
    words = np.unique(_sample_codebook(np.random.default_rng(8), np.array([0.5, 0.5]), 8, 160),
                      axis=0)
    _, head, tails, tail = channel_module._TrialGroup(matrix, 8).tables(words)
    h = int(head.max()) + 1
    want = _head_tops(tails, tail, head, h)
    with mock.patch.object(channel_module, "_key_dtype", _int64_keys):
        got = _head_tops(tails, tail, head, h)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


@settings(max_examples=60)
@given(_coding_cases())
# codeword 0 owns only output 2, which no codeword reaches
@example((np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([[0], [1], [2]])))
# 81 output strings whose masses a sequential sum misses by 1.1e-15
@example((_normalized([[0.05, 0.0, 0.1], [3.0, 0.05, 0.05]]),
          np.array([[1, 1, 1, 0], [0, 0, 0, 0]])))
def test_dense_decoder_matches_a_per_string_loop(case):
    rows = _block_rows(*case)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        decision, decoder, masses = _decoder_from_rows(rows)
    want_decision, want_decoder, want_masses = _decoder_by_strings(rows)
    assert np.array_equal(decision, want_decision)
    fallback = want_masses <= 0.0
    assert np.array_equal(masses <= 0.0, fallback)
    assert np.array_equal(decoder[fallback], want_decoder[fallback])
    # a sum of `size` nonnegative terms, in any order, is within
    # size * 2**-53 of the exact one relative to it; a decoder entry divides
    # by that sum and rounds once more
    size = rows.shape[1]
    assert np.all(np.abs(masses - want_masses) <= size * 2.0 ** -53 * want_masses)
    assert np.all(np.abs(decoder - want_decoder) <= (size + 2) * 2.0 ** -53 * want_decoder)


@st.composite
def _dyadic_cases(draw):
    # Rows of eighths, zeros among them: words of different heads tie
    # exactly, and the lowest index among them wins.  The last row may be
    # another one with an entry an ulp up and one an ulp down: its words'
    # likelihoods can round to the same product as another word's of their
    # head, and the ML pass redoes those columns (in about one case in ten).
    m, n, k = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 5))
    cuts = [sorted(draw(st.lists(st.integers(0, 8), min_size=n - 1, max_size=n - 1)))
            for _ in range(m)]
    matrix = np.diff([[0, *row, 8] for row in cuts], axis=1) / 8.0
    row = matrix[draw(st.integers(0, m - 2))].copy()
    up, down = draw(st.permutations(range(n)))[:2]
    if draw(st.booleans()) and row[down] > 0.0:
        row[up], row[down] = np.nextafter(row[up], 1.0), np.nextafter(row[down], 0.0)
        matrix[-1] = row
    r = draw(st.integers(2, 40))
    codebook = np.array(draw(st.lists(st.lists(st.integers(0, m - 1), min_size=k, max_size=k),
                                      min_size=r, max_size=r)), dtype=np.int64)
    for j in draw(st.lists(st.integers(1, r - 1), max_size=r // 3)):
        codebook[j] = codebook[draw(st.integers(0, j - 1))]  # forced repeats
    return Channel(matrix).matrix, codebook


@pytest.mark.parametrize("entries", [channel_module.STREAM_BLOCK_ENTRIES, 1, 30])
@settings(max_examples=60)
@given(_dyadic_cases())
@example(_COLLAPSE)
@example(_UNREACHABLE)
@example(_STAGED_TIE)
@example(_STAGED_GAIN)
def test_decoder_table_is_the_dense_oracle_bit_for_bit(entries, case):
    # decisions, decoder bytes, masses and warnings of the streamed decoder
    # against the argmax over the dense rows, at every cut of the pieces
    matrix, codebook = case
    want, want_warnings = _warned(_decoder_from_rows, _block_rows(matrix, codebook))
    for searched in (False, True):
        with mock.patch.object(channel_module, "STREAM_BLOCK_ENTRIES", entries), \
                _heads_searched(searched):
            got, got_warnings = _warned(_ml_decoder, matrix, codebook)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        assert got_warnings == want_warnings


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_negative_zero_entries_code_as_zeros(data):
    # a channel given -0.0 for its zeros stores 0.0: the codebook, decoder
    # and experiment bytes are those of the +0.0 channel, and the decoder is
    # the dense oracle's bit for bit
    m, n = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    k = data.draw(st.integers(1, 4))
    grid = st.sampled_from([0.0, 0.0, 0.05, 0.25, 1.0, 3.0])
    mat = np.array([[data.draw(grid) for _ in range(n)] for _ in range(m)])
    mat[mat.sum(axis=1) == 0.0, 0] = 1.0
    mat /= mat.sum(axis=1, keepdims=True)
    assume(0.0 in mat and classify(Channel(mat)).kind != "useless")
    rate = data.draw(st.sampled_from([0.5, 1.0]))
    assume(k * rate >= 1)
    omega = State(AtomicAlgebra(m), [1.0 / m] * m)
    runs = []
    for entries in (mat, np.where(mat == 0.0, -0.0, mat)):
        channel = Channel(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            codebook, lossless = build_code_and_decoder(channel, omega, k, rate, seed=5)
            oracle = _decoder_from_rows(_block_rows(channel.matrix, codebook))[1]
            results = coding_experiment(channel, omega, rate, ks=(k,), trials=2, seed=5)
        assert lossless.matrix.tobytes() == oracle.tobytes()
        runs.append((channel.matrix.tobytes(), codebook.tobytes(), lossless.matrix.tobytes(),
                     lossless.decision, repr(results)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.58, 0.42)])
def test_trial_error_is_the_hamming_oracle(weights):
    # On a BSC with p < 1/2 the most likely codeword for y is one nearest in
    # Hamming distance d, so the success is (1/r) sum_y (1 - p)**(k - d) p**d
    # with d the least distance: an oracle that shares no product with the
    # trial.  Trial t draws its codebook with seed + t.
    p, seed = 0.05, 31
    omega = State(AtomicAlgebra(2), list(weights))
    with pytest.warns(UserWarning, match="not below capacity"), \
            pytest.warns(UserWarning, match="zero mass"):
        results = coding_experiment(bsc(p), omega, 0.99, ks=(8, 10, 12), trials=2, seed=seed)
    for result in results:
        k, r = result.k, result.codebook_size
        for t in range(result.trials):
            codebook = _sample_codebook(np.random.default_rng(seed + t), omega.weights, k, r)
            words = codebook @ (1 << np.arange(k - 1, -1, -1))
            least = np.concatenate([
                np.bitwise_count(ys[:, None] ^ words[None, :]).min(axis=1)
                for ys in np.array_split(np.arange(2 ** k), 16)
            ])
            counts = np.bincount(least, minlength=k + 1)
            success = sum(int(counts[d]) * (1 - p) ** (k - d) * p ** d for d in range(k + 1))
            error = result.trial_error_probs[t]
            assert abs(error - (1.0 - success / r)) <= 1e-12
            assert result.trial_deviations[t] <= 2.0 * error


def test_coding_experiment_values_are_pinned():
    # every value of the benchmark's coding shapes, bit for bit as the
    # half-table products, masses in string order and per-type gaps over the
    # half tables give them
    c = bsc(0.05)
    with pytest.warns(UserWarning, match="not below capacity"), \
            pytest.warns(UserWarning, match="zero mass"):
        uniform = coding_experiment(c, State.uniform(AtomicAlgebra(2)), 0.99, ks=(8, 9, 10),
                                    trials=3, seed=17)
        (skewed,) = coding_experiment(c, State(AtomicAlgebra(2), [0.58, 0.42]), 0.99, ks=(11,),
                                      trials=2, seed=23)
    got = [(r.codebook_size, r.deviation, r.error_prob, r.trial_deviations, r.trial_error_probs)
           for r in (*uniform, skewed)]
    assert got == [
        (242, 1.027997813916258, 0.5449264810165936,
         (1.0412896155578513, 1.032428414463456, 1.0102754117274666),
         (0.5527178475432594, 0.5475236031921489, 0.5345379923143727)),
        (481, 1.079800479648833, 0.570776635723168,
         (1.093134338411594, 1.08471295392985, 1.0615541466050546),
         (0.5786383747218118, 0.5736730658805631, 0.5600184665671292)),
        (955, 1.1480837923040974, 0.5971683353969619,
         (1.1547292616346971, 1.1316449997494558, 1.157877115528139),
         (0.600930033444533, 0.5878630823319179, 0.6027118904144348)),
        (1897, 1.245212848644149, 0.6415261294248106,
         (1.249671977619456, 1.2407537196688418),
         (0.6439705469430229, 0.6390817119065982)),
    ]



# library golden files ----------------------------------------------------------

LIBRARY_GOLDEN = pathlib.Path(__file__).parent / "golden" / "library"
CODING_GOLDEN = LIBRARY_GOLDEN / "coding_experiment.json"
CAPACITY_GOLDEN = LIBRARY_GOLDEN / "capacity.json"
DECODER_GOLDEN = LIBRARY_GOLDEN / "decoder.json"


def _coding_golden_cases():
    # Seeded grids on a bsc, a z-channel and a channel with three inputs,
    # each with a uniform and a skewed input (a skewed three-input state
    # leaves one input out), k <= 10.
    rng = np.random.default_rng(2022)
    z = float(rng.uniform(0.1, 0.5))
    channels = (bsc(float(rng.uniform(0.02, 0.2))),
                Channel([[1.0, 0.0], [z, 1.0 - z]]),
                Channel(rng.dirichlet(np.ones(4), 3)))
    for case in range(12):
        c = channels[case % 3]
        m = c.input_dim
        weights = np.full(m, 1.0 / m)
        if case % 2:
            weights = rng.dirichlet(np.full(m, 0.7))
            if m == 3:
                weights[int(rng.integers(m))] = 0.0
        top = 10 if m == 2 else 5
        ks = sorted(set(rng.integers(2, top + 1, 3).tolist()))
        yield dict(channel=c, omega=State(AtomicAlgebra(m), weights / weights.sum()),
                   rate=float(rng.uniform(0.5, 0.99)), ks=ks,
                   trials=int(rng.integers(1, 4)), seed=int(rng.integers(1000)))


def coding_golden_records():
    """Each case's warnings and, per block length, ``[k, r, deviation,
    error, trial deviations, trial errors]``, floats as ``float.hex``."""
    records = []
    for case in _coding_golden_cases():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = coding_experiment(**case)
        rows = [[r.k, r.codebook_size, float.hex(r.deviation), float.hex(r.error_prob),
                 [float.hex(x) for x in r.trial_deviations],
                 [float.hex(x) for x in r.trial_error_probs]] for r in results]
        records.append([sorted(set(str(w.message) for w in caught)), rows])
    return records


def _capacity_golden_cases():
    # closed forms, skewed channels (sparse rows, some columns without mass)
    # at the defaults and at the coding probe's settings, and the four plain
    # channels of the benchmark, two of which do not converge
    yield "bsc", bsc(0.11), {}
    yield "bec", bec(0.3), {}
    yield "z", Channel([[1.0, 0.0], [0.5, 0.5]]), {}
    yield "identity", identity_channel(3), {}
    yield "useless", useless_channel([0.4, 0.6]), {}
    rng = np.random.default_rng(2023)
    for case in range(6):
        m, n = (int(x) for x in rng.integers(2, 9, 2))
        mat = rng.dirichlet(np.full(n, 0.3), m)
        mat[mat < 0.05] = 0.0
        mat[:, 0] += mat.sum(axis=1) == 0.0
        options = {} if case % 2 else dict(tol=1e-6, max_iter=2000)
        yield "skewed%d" % case, Channel(mat / mat.sum(axis=1, keepdims=True)), options
    for n, s in ((16, 3), (32, 1), (48, 0), (64, 1)):
        yield "plain%d" % n, _plain_channel(n, s), {}


def capacity_golden_records():
    """Each case's capacity and gap as ``float.hex``, its iterations and the
    SHA-256 of its optimal weights, or the text of its ConvergenceError."""
    records = []
    for name, c, options in _capacity_golden_cases():
        try:
            result = capacity(c, **options)
        except ConvergenceError as exc:
            records.append([name, str(exc)])
            continue
        records.append([name, float.hex(result.capacity), float.hex(result.gap),
                        result.iterations,
                        hashlib.sha256(result.optimal_input.weights.tobytes()).hexdigest()])
    return records


def _decoder_golden_cases():
    # A bsc, a z-channel and a channel with three inputs whose last output no
    # input reaches, under a uniform and a skewed input; one input of weight
    # 0 makes codewords repeat.  k runs from 1 to 8, and the rates up to 0.99
    # bits leave decision blocks without mass.
    three = Channel([[0.25, 0.25, 0.5, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    inputs = [(bsc(0.1), (0.5, 0.5)), (bsc(0.1), (0.8, 0.2)),
              (Channel([[1.0, 0.0], [0.3, 0.7]]), (0.5, 0.5)),
              (Channel([[1.0, 0.0], [0.3, 0.7]]), (0.9, 0.1)),
              (three, (1 / 3, 1 / 3, 1 / 3)), (three, (0.6, 0.4, 0.0)), (three, (0.2, 0.3, 0.5))]
    # (input, k, rate, seed); the last two leave codeword 0 only strings
    # that no codeword reaches, whose decoder row is uniform on them
    grid = [(0, 1, 1.0, 0), (0, 4, 0.5, 1), (0, 8, 0.99, 2), (1, 3, 0.7, 3), (1, 6, 0.9, 4),
            (1, 8, 0.6, 5), (2, 2, 0.8, 6), (2, 5, 0.99, 7), (2, 7, 0.75, 8), (3, 4, 0.9, 9),
            (3, 8, 0.99, 10), (4, 1, 1.5, 11), (4, 2, 1.2, 12), (4, 4, 1.0, 13), (5, 2, 0.9, 14),
            (5, 3, 0.9, 15), (5, 5, 0.95, 16), (6, 2, 1.5, 17), (6, 3, 1.2, 18), (6, 5, 1.1, 19),
            (6, 1, 1.585, 3), (4, 2, 1.5, 2)]
    for which, k, rate, seed in grid:
        c, weights = inputs[which]
        yield dict(channel=c, omega=State(AtomicAlgebra(c.input_dim), list(weights)),
                   k=k, rate=rate, seed=seed)


def decoder_golden_records():
    """Each case's SHA-256 of the codebook, the decisions and the decoder
    bytes, its row masses as ``float.hex`` and its warnings."""
    records = []
    for case in _decoder_golden_cases():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            codebook, lossless = build_code_and_decoder(**case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            masses = _ml_decoder(case["channel"].matrix, codebook)[2]
        records.append([hashlib.sha256(codebook.tobytes()).hexdigest(),
                        hashlib.sha256(np.array(lossless.decision, dtype=np.int64).tobytes()).hexdigest(),
                        hashlib.sha256(lossless.matrix.tobytes()).hexdigest(),
                        [float.hex(float(x)) for x in masses],
                        sorted(str(w.message) for w in caught)])
    return records


def test_coding_experiment_matches_the_library_golden_file():
    assert coding_golden_records() == json.loads(CODING_GOLDEN.read_text(encoding="utf-8"))


def test_capacity_matches_the_library_golden_file():
    assert capacity_golden_records() == json.loads(CAPACITY_GOLDEN.read_text(encoding="utf-8"))


def test_build_code_and_decoder_matches_the_library_golden_file():
    assert decoder_golden_records() == json.loads(DECODER_GOLDEN.read_text(encoding="utf-8"))
