"""The factored tensor layer against the basis-string oracle in tensor_oracle."""

import functools
import math
import operator
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstar_info import algebra
from cstar_info.algebra import (
    AtomicAlgebra,
    Element,
    MultiIndex,
    TensorElement,
    embed_at,
    tensor_power,
    tensor_product,
    trace,
)
from cstar_info.information import embed_word
from cstar_info.probability import ProductState, State
from tensor_oracle import DictTensor

MAX_LEVEL = 6
# dyadic values keep products exact, so both sides see the same zeros
COEFFS = st.sampled_from([0, 0, 1, -1, 0.5, -2, 1.5, 1j, 0.5 - 1j, -0.25j])
WEIGHTS = st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any)


@st.composite
def programs(draw, dims=st.integers(2, 4)):
    """A factor dimension and an expression tree over it."""
    d = draw(dims)
    vec = st.lists(COEFFS, min_size=d, max_size=d)
    leaf = st.one_of(
        st.tuples(st.just("embed"), vec, st.integers(1, MAX_LEVEL)),
        st.tuples(st.just("power"), vec, st.integers(1, 2)),
        st.tuples(st.just("scalar"), COEFFS),
    )
    tree = st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["mul", "add", "tensor"]), sub, sub),
            st.tuples(st.just("star"), sub),
            st.tuples(st.just("scale"), COEFFS, sub),
        ),
        max_leaves=5,
    )
    return d, draw(tree)


def evaluate(d, node):
    """The tree on both sides: (TensorElement, DictTensor)."""
    alg = AtomicAlgebra(d)

    def go(node):
        op = node[0]
        if op == "embed":
            return embed_at(Element(alg, node[1]), node[2]), DictTensor.embed_at(node[1], node[2])
        if op == "power":
            return (tensor_power(Element(alg, node[1]), node[2]),
                    DictTensor.embed_at(node[1], 1).tensor_power(node[2]))
        if op == "scalar":
            return TensorElement.scalar(alg, node[1]), DictTensor.scalar(d, node[1])
        if op == "star":
            x, ox = go(node[1])
            return x.star(), ox.star()
        if op == "scale":
            x, ox = go(node[2])
            return node[1] * x, ox.scale(node[1])
        (x, ox), (y, oy) = go(node[1]), go(node[2])
        if op == "add":
            return x + y, ox + oy
        if op == "tensor" and ox.level + oy.level <= MAX_LEVEL:
            return x.tensor(y), ox.tensor(oy)
        return x * y, ox * oy

    return go(node)


def close(a, b, scale):
    return abs(a - b) <= 1e-12 * max(1.0, scale)


@settings(max_examples=80)
@given(programs(), st.lists(WEIGHTS, min_size=4, max_size=4))
def test_factored_elements_agree_with_the_string_oracle(program, weight_rows):
    d, tree = program
    x, oracle = evaluate(d, tree)
    scale = sum(abs(c) for c in oracle.terms.values()) * d ** MAX_LEVEL
    got = {idx.pairs: c for idx, c in x.terms.items()}
    assert got.keys() == oracle.terms.keys()
    assert all(close(got[k], c, scale) for k, c in oracle.terms.items())
    assert x.level == oracle.level
    assert TensorElement(x.factor_algebra, x.terms) == x
    for lvl in (oracle.level, min(oracle.level + 1, MAX_LEVEL)):
        assert np.max(np.abs(x.dense(lvl) - oracle.dense(lvl))) <= 1e-12 * max(1.0, scale)
        assert close(trace(x, lvl), oracle.trace(lvl), scale)
    states = [State(x.factor_algebra, np.array(w[:d], dtype=float) / sum(w[:d]))
              for w in weight_rows if any(w[:d])]
    if states:
        omega = ProductState(states[:-1], states[-1])
        want = oracle.product_state(lambda pos: omega.state_at(pos).weights)
        assert close(omega(x), want, scale)


def _reflected(node):
    # the same program with every vector's atoms in reverse order
    op = node[0]
    if op in ("embed", "power"):
        return (op, node[1][::-1], node[2])
    if op == "scalar":
        return node
    if op == "scale":
        return (op, node[1], _reflected(node[2]))
    return (op,) + tuple(_reflected(sub) for sub in node[1:])


@settings(max_examples=100)
@given(st.data())
def test_equality_and_hash_follow_the_oracle_term_maps(data):
    # == is "the same term map, coefficients exactly equal", whatever
    # elementary tensors carry it; dyadic values keep both sides exact
    d, tree = data.draw(programs())
    (x, ox), (y, oy) = evaluate(d, tree), evaluate(d, data.draw(programs(st.just(d)))[1])
    # self-adjoint with a real scalar part, so its conjugate differs from it
    # by -0.0 in the scalar's imaginary part at least
    r = x + x.star() + TensorElement.scalar(x.factor_algebra, 0.1)
    o_r = ox + ox.star() + DictTensor.scalar(d, 0.1)
    assert math.copysign(1.0, r.star().terms[MultiIndex()].imag) == -1.0
    o_xy = ox * oy
    pairs = [
        ((x, ox), (y, oy)),
        ((x, ox), evaluate(d, _reflected(tree))),
        ((x, ox), (x + y - y, ox + oy + oy.scale(-1))),
        ((x + y, ox + oy), (y + x, oy + ox)),
        ((x * y, o_xy), (y * x, o_xy)),
        ((x, ox), (x.star(), ox.star())),
        ((r, o_r), (r.star(), o_r.star())),
        # a scalar below ZERO_TOL is no term, nor is a zero elementary tensor
        ((TensorElement.identity(x.factor_algebra) * 1e-16, DictTensor(d, {})),
         (x * 0.0, DictTensor(d, {}))),
    ]
    for (a, oa), (b, ob) in pairs:
        assert (a == b) == (oa.terms == ob.terms) == (b == a)
        if a == b:
            assert hash(a) == hash(b)


def _one_axis_per_position(support, d, level):
    # dense() broadcasting with one numpy axis per position, as before runs
    # of positions were merged
    shape = [1] * level
    for pos in support:
        shape[pos - 1] = d
    return [d] * level, shape


@settings(max_examples=60)
@given(programs(), st.integers(0, 2))
def test_dense_with_merged_runs_equals_one_axis_per_position(program, extra):
    d, tree = program
    x, _ = evaluate(d, tree)
    lvl = x.level + extra  # at most MAX_LEVEL + 2 = 8
    with mock.patch.object(algebra, "_broadcast_axes", _one_axis_per_position):
        want = x.dense(lvl)
    assert np.array_equal(x.dense(lvl), want)


def test_product_state_of_an_elementary_tensor_is_the_product_of_the_factors():
    rng = np.random.default_rng(2024)
    for d, n in ((2, 6), (3, 4), (4, 3)):
        alg = AtomicAlgebra(d)
        xs = [Element(alg, rng.normal(size=d) + 1j * rng.normal(size=d)) for _ in range(n)]
        states = [State(alg, w) for w in rng.dirichlet(np.ones(d), size=n)]
        x = functools.reduce(tensor_product, xs)
        omega = ProductState(states[:-1], states[-1])
        kron = functools.reduce(np.kron, [xi.coeffs for xi in xs])
        weights = functools.reduce(np.kron, [s.weights for s in states])
        value = omega(x)
        assert abs(value - np.prod([s(xi) for s, xi in zip(states, xs)])) <= 1e-12
        assert abs(value - kron @ weights) <= 1e-12
        assert np.allclose(x.dense(), kron, rtol=0, atol=1e-12)
        # identity factors between explicit positions evaluate to 1
        gapped = embed_at(xs[0], 2) * embed_at(xs[1], 5)
        want = omega.state_at(2)(xs[0]) * omega.state_at(5)(xs[1])
        assert abs(omega(gapped) - want) <= 1e-12


def test_elementary_tensors_stay_factored_at_high_level():
    alg = AtomicAlgebra(4)
    x = Element(alg, [0.1, 0.2, 0.3, 0.4])
    power = tensor_power(x, 200)
    assert power.level == 200
    assert abs(trace(power) - 1.0) <= 1e-12
    iid = ProductState.iid(State.uniform(alg))
    assert abs(iid(power) - 0.25 ** 200) <= 1e-300
    far = embed_at(x, 10_000) * embed_at(x, 3)
    assert far.level == 10_000
    assert abs(iid(far) - 0.0625) <= 1e-15


# entries with zeros, so vectors vanish at some atoms or everywhere
GRID = st.sampled_from([0, 0, 1, -1, 0.5, 2j, -0.5j])


@st.composite
def elementary_pairs(draw):
    """Two single elementary tensors on positions from 1 to 5, so their
    supports overlap partly, fully or not at all."""
    d = draw(st.integers(2, 4))
    vec = st.one_of(st.lists(GRID, min_size=d, max_size=d), st.just([0] * d))

    def factors():
        positions = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True))
        return [(pos, draw(vec)) for pos in positions]

    return d, factors(), factors()


def _elementary(d, factors):
    alg = AtomicAlgebra(d)
    x = functools.reduce(operator.mul, [embed_at(Element(alg, v), p) for p, v in factors])
    ox = functools.reduce(operator.mul, [DictTensor.embed_at(v, p) for p, v in factors])
    return x, ox


@settings(max_examples=300)
@given(elementary_pairs())
@example((2, [(1, [1, 0]), (2, [0, 0])], [(1, [1, 1])]))  # zero vector, unshared
@example((3, [(2, [1, 0, 0])], [(2, [0, 1, 0]), (4, [1, 1, 1])]))  # disjoint atoms
def test_products_of_elementary_tensors_vanish_as_the_oracle_says(pair):
    d, xs, ys = pair
    (x, ox), (y, oy) = _elementary(d, xs), _elementary(d, ys)
    assert [len(rows) for rows in x._blocks.values()] == [1]
    assert [len(rows) for rows in y._blocks.values()] == [1]
    got, want = x * y, ox * oy
    assert bool(got.terms) == bool(want.terms)
    assert got.level == want.level
    assert np.array_equal(got.dense(want.level), want.dense(want.level))


def _single_row(d, factors):
    # one elementary tensor as one block row, zero vectors kept
    support = tuple(pos for pos, _ in factors)
    rows = np.array([[vec for _, vec in factors]], dtype=complex)
    return algebra._tensor_element(AtomicAlgebra(d), 0j, {support: rows})


@settings(max_examples=300)
@given(st.integers(2, 4), st.data())
def test_vanishing_masks_agree_with_dense_products_past_one_machine_word(d, data):
    # Positions up to 200 put the masks' fields far past bit 64; the dense
    # oracle sees the same factors on the ranks of the positions used.
    used = sorted(data.draw(st.sets(st.integers(1, 200), min_size=1, max_size=5)))
    rank = {pos: k for k, pos in enumerate(used, 1)}
    vec = st.one_of(st.lists(GRID, min_size=d, max_size=d), st.just([0] * d))

    def factors():
        positions = sorted(data.draw(st.sets(st.sampled_from(used), min_size=1)))
        return [(pos, data.draw(vec)) for pos in positions]

    xs, ys = factors(), factors()
    (x, ox), (y, oy) = [(_single_row(d, f), _single_row(d, [(rank[p], v) for p, v in f]))
                        for f in (xs, ys)]
    mx, my = x._masks(tuple(p for p, _ in xs)), y._masks(tuple(p for p, _ in ys))
    dx, dy = ox.dense(len(used)), oy.dense(len(used))
    # a zero factor anywhere makes the tensor itself zero
    assert algebra._vanishes(mx, mx, d) == (not dx.any())
    assert x.level == (xs[-1][0] if dx.any() else 0)
    if dx.any() and dy.any():
        vanishes = not (dx * dy).any()
        assert algebra._vanishes(mx, my, d) == algebra._vanishes(my, mx, d) == vanishes
        assert not (x * y)._blocks == vanishes


def _prefix_tree_words(rng, leaves, inner):
    """Leaves of a random binary tree, a prefix code, plus some inner nodes."""
    frontier, nodes = [""], []
    while len(frontier) < leaves:
        node = frontier.pop(int(rng.integers(len(frontier))))
        if node:
            nodes.append(node)
        frontier += [node + "0", node + "1"]
    picked = rng.choice(len(nodes), size=min(inner, len(nodes)), replace=False)
    return frontier + [nodes[i] for i in sorted(picked)]


def test_word_products_form_rows_only_for_prefix_related_words():
    words = _prefix_tree_words(np.random.default_rng(11), 40, 12)
    alg = AtomicAlgebra(2)
    embedded = [embed_word(w, alg) for w in words]
    with mock.patch.object(algebra, "_block_product", wraps=algebra._block_product) as spy:
        for i, (u, x) in enumerate(zip(words, embedded)):
            for v, y in zip(words[i + 1:], embedded[i + 1:]):
                spy.reset_mock()
                related = u.startswith(v) or v.startswith(u)
                assert bool((x * y).terms) == related
                assert spy.call_count == (1 if related else 0)


def test_terms_keys_come_scalar_first_then_big_endian():
    alg = AtomicAlgebra(3)
    x = TensorElement.scalar(alg, 5.0) + tensor_power(Element(alg, [1.0, 2.0, 0.0]), 3)
    keys = [idx.pairs for idx in x.terms]
    assert keys[0] == () and len(keys) == 1 + 2 ** 3
    assert keys[1:] == sorted(keys[1:])
