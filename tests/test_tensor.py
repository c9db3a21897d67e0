"""The factored tensor layer against the basis-string oracle in tensor_oracle."""

import copy
import functools
import hashlib
import json
import math
import operator
import pathlib
import pickle
from unittest import mock

import numpy as np
import pytest
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
from cstar_info.information import Source, aep_projection, embed_word
from cstar_info.probability import ProductState, State
from tensor_oracle import DictTensor

MAX_LEVEL = 6
# dyadic values keep products exact, so both sides see the same zeros
COEFF_VALUES = [0, 0, 1, -1, 0.5, -2, 1.5, 1j, 0.5 - 1j, -0.25j]
COEFFS = st.sampled_from(COEFF_VALUES)
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


def _term_bits(x):
    # .terms in key order with the exact bits of each coefficient
    return [(idx.pairs, float.hex(c.real), float.hex(c.imag)) for idx, c in x.terms.items()]


def _word_oracle(d, word):
    return DictTensor(d, {tuple((k, int(ch)) for k, ch in enumerate(word, 1)): 1.0})


# scalars that give the word products zeros of either sign, and a zero row
WORD_SCALES = st.sampled_from([1, -1, 0.5, 1j, -0.25j, 0.5 - 1j, complex(-0.0, 1), 0.0])


@settings(max_examples=100)
@given(st.integers(2, 4), st.data())
def test_word_products_and_concatenations_agree_with_the_oracle(d, data):
    # Products and tensor concatenations of scaled (and starred) embedded
    # words against the string oracle, and .terms read from one row bit for
    # bit as the numpy expansion of the same blocks reads it.
    word = st.text(alphabet="0123456789"[:d], min_size=1, max_size=5)
    alg = AtomicAlgebra(d)

    def operand():
        w, c, starred = data.draw(word), data.draw(WORD_SCALES), data.draw(st.booleans())
        x, ox = c * embed_word(w, alg), _word_oracle(d, w).scale(c)
        return (x.star(), ox.star()) if starred else (x, ox)

    (x, ox), (y, oy) = operand(), operand()
    # the same operands with empty caches, multiplied by the block loops
    fresh = [algebra._tensor_element(alg, z._scalar, z._blocks) for z in (x, y)]
    with mock.patch.object(TensorElement, "_mask", return_value=()):
        looped = [fresh[0] * fresh[1], fresh[1] * fresh[0], fresh[0].tensor(fresh[1])]
    for got, want, slow in zip((x * y, y * x, x.tensor(y)), (ox * oy, ox * oy, ox.tensor(oy)),
                               looped):
        assert {idx.pairs: c for idx, c in got.terms.items()} == want.terms
        assert got.level == want.level
        assert np.array_equal(got.dense(want.level), want.dense(want.level))
        assert got.dense(want.level).tobytes() == slow.dense(want.level).tobytes()
        again = algebra._tensor_element(alg, got._scalar, got._blocks)
        with mock.patch.object(algebra, "_one_string", return_value=None):
            assert _term_bits(again) == _term_bits(got)


def test_word_product_edge_cases_agree_with_the_oracle():
    alg = AtomicAlgebra(2)
    e01, e1, one = embed_word("01", alg), embed_word("1", alg), TensorElement.identity(alg)
    o01, o1, o_one = _word_oracle(2, "01"), _word_oracle(2, "1"), DictTensor.scalar(2, 1)
    zero_row = _single_row(2, [(1, [0, 1]), (3, [0, 0])])
    o_zero = DictTensor(2, {})
    cases = [
        ((one + e01) * e1, (o_one + o01) * o1),
        (e01 * TensorElement(alg), o_zero),
        (TensorElement(alg) * e01, o_zero),
        ((3 * e01) * embed_word("011", alg), o01.scale(3) * _word_oracle(2, "011")),
        (e01 * (0.5j * e01), o01 * o01.scale(0.5j)),
        (zero_row, o_zero),
        (zero_row * e01, o_zero),
        (zero_row * embed_word("10", alg), o_zero),
    ]
    for got, want in cases:
        assert {idx.pairs: c for idx, c in got.terms.items()} == want.terms
        assert got.level == want.level
        assert np.array_equal(got.dense(3), want.dense(3))


def test_embed_word_equals_the_element_built_from_its_term():
    for d in (2, 3, 10):
        alg = AtomicAlgebra(d)
        for word in ("0", "1", "10", "%d0%d" % (d - 1, d - 1), "0110" * 3):
            built = TensorElement(alg, {MultiIndex(dict(enumerate(map(int, word), 1))): 1.0})
            x = embed_word(word, alg)
            assert x == built and hash(x) == hash(built)
            assert _term_bits(x) == _term_bits(built)
            assert x.level == built.level == len(word)


def test_vanishing_products_of_one_left_operand_share_a_read_only_zero():
    alg = AtomicAlgebra(2)
    x, y = embed_word("01", alg), embed_word("1", alg)
    z = x * y
    assert x * y is z and x * embed_word("11", alg) is z
    assert z.terms == {} and z == TensorElement(alg) and hash(z) == hash(TensorElement(alg))
    # a caller that writes into the shared terms changes no other result
    with pytest.raises(TypeError):
        z.terms[MultiIndex({1: 0})] = 1.0
    assert z.terms == {} and (x * y).terms == {}
    # the zero, and an operand that holds one, pickle and copy with it
    for value, zero_of in ((z, lambda back: back), (x, lambda back: back * y)):
        for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert back == value and hash(back) == hash(value)
            assert zero_of(back) == z
            with pytest.raises(TypeError):
                zero_of(back).terms[MultiIndex({1: 0})] = 1.0


def _bits(z):
    return math.copysign(1.0, z.real), math.copysign(1.0, z.imag), z


def test_vanishing_products_keep_the_sign_bits_of_their_scalar():
    # s * t carries the sign bits of the operands' zero scalars, so a zero
    # kept for one right operand must not stand for a product with another
    alg = AtomicAlgebra(2)
    pairs = []
    for u, v in (("01", "1"), ("1", "01")):
        left, right = embed_word(u, alg), embed_word(v, alg)
        pairs += [(a, b) for a in (left, (-1.0) * left, left.star(), 1j * left)
                  for b in (right, (-1.0) * right, right.star(), 1j * right)]
    signs = set()
    for a, b in pairs * 2:
        got, want = a * b, algebra._tensor_element(alg, a._scalar * b._scalar, {})
        assert _bits(got._scalar) == _bits(want._scalar)
        assert got.dense().tobytes() == want.dense().tobytes()
        assert [_bits(c) for _, c in got.factor_sums()] == [_bits(c) for _, c in want.factor_sums()]
        signs.add(_bits(want._scalar)[:2])
    assert len(signs) > 1


def test_vanishing_products_of_one_left_operand_build_one_zero():
    alg = AtomicAlgebra(2)
    x = embed_word("0", alg)
    others = [embed_word("1" + format(i, "010b"), alg) for i in range(1000)]
    with mock.patch.object(algebra, "_tensor_element", wraps=algebra._tensor_element) as spy:
        assert not any((x * y).terms for y in others)
    assert spy.call_count <= 1


def test_terms_keys_come_scalar_first_then_big_endian():
    alg = AtomicAlgebra(3)
    x = TensorElement.scalar(alg, 5.0) + tensor_power(Element(alg, [1.0, 2.0, 0.0]), 3)
    keys = [idx.pairs for idx in x.terms]
    assert keys[0] == () and len(keys) == 1 + 2 ** 3
    assert keys[1:] == sorted(keys[1:])
    # a constructed element orders its keys the same way, whatever the order
    # of the term map it is given
    y = TensorElement(AtomicAlgebra(2), {MultiIndex({1: 1}): 1.0, MultiIndex({1: 0}): 3.0,
                                         MultiIndex(): 2.0})
    assert [idx.pairs for idx in y.terms] == [(), ((1, 0),), ((1, 1),)]


def _built_elements():
    # elements given by basis strings, each one block of several one-hot
    # rows: a typical projection, a constructed element and the dense
    # result of apply
    alg = AtomicAlgebra(2)
    yield aep_projection(Source.from_weights([0.9, 0.1]), 20, 0.2)
    yield TensorElement(alg, {MultiIndex({1: 0, 3: 1}): 2.0, MultiIndex({1: 1, 3: 1}): 3.0,
                              MultiIndex({1: 1, 3: 0}): -1.0})
    yield (embed_at(alg.atom(0), 1) + embed_at(alg.atom(1), 2)).apply(lambda v: v + 1.0)


def test_elements_given_by_basis_strings_know_their_level(monkeypatch):
    # .level expands nothing, so .level then dense() expands the block once
    calls = []
    expand = algebra._block_strings
    monkeypatch.setattr(algebra, "_block_strings", lambda rows: calls.append(1) or expand(rows))
    for x, level in zip(_built_elements(), (20, 3, 2)):
        (rows,) = x._blocks.values()
        assert len(rows) > 1
        calls.clear()
        assert x.level == level
        assert calls == []
        x.dense()
        assert len(calls) == 1
        assert max(idx.level for idx in x.terms) == level


@st.composite
def _term_maps(draw):
    # a dimension and (string, coefficient) pairs, repeats and zeros allowed
    d = draw(st.integers(2, 4))
    strings = st.dictionaries(st.integers(1, MAX_LEVEL), st.integers(0, d - 1), max_size=3)
    return d, draw(st.lists(st.tuples(strings, COEFFS), max_size=8))


@settings(max_examples=200)
@given(_term_maps())
def test_constructed_terms_are_in_the_order_of_a_product(case):
    d, items = case
    x = TensorElement(AtomicAlgebra(d), [(MultiIndex(idx), c) for idx, c in items])
    assert list(x.terms) == list((x * 1.0).terms)


TENSOR_GOLDEN = pathlib.Path(__file__).parent / "golden" / "library" / "tensor_programs.json"


def _seeded_program(rng, d, leaves):
    """A tree of the node kinds of ``programs`` with at most ``leaves``
    leaves, drawn from a numpy generator, so that the golden corpus does
    not depend on how a hypothesis version draws."""

    def vec():
        return [COEFF_VALUES[i] for i in rng.integers(len(COEFF_VALUES), size=d)]

    if leaves == 1:
        kind = ("embed", "power", "scalar")[int(rng.integers(3))]
        if kind == "embed":
            return kind, vec(), int(rng.integers(1, MAX_LEVEL + 1))
        if kind == "power":
            return kind, vec(), int(rng.integers(1, 3))
        return kind, COEFF_VALUES[int(rng.integers(len(COEFF_VALUES)))]
    op = ("mul", "add", "tensor", "star", "scale")[int(rng.integers(5))]
    if op == "star":
        return op, _seeded_program(rng, d, leaves)
    if op == "scale":
        return op, COEFF_VALUES[int(rng.integers(len(COEFF_VALUES)))], _seeded_program(rng, d, leaves)
    left = int(rng.integers(1, leaves))
    return op, _seeded_program(rng, d, left), _seeded_program(rng, d, leaves - left)


def _golden_record(x):
    # .terms in key order, coefficients as float.hex, the level, and the
    # SHA-256 of dense(), whose bytes also pin the sign of every zero
    terms = [[[list(p) for p in idx.pairs], float.hex(c.real), float.hex(c.imag)]
             for idx, c in x.terms.items()]
    return [terms, x.level, hashlib.sha256(x.dense().tobytes()).hexdigest()]


def tensor_golden_records():
    """Seeded tensor programs, then the pairwise products and the tensor
    concatenations of the embedded words of a seeded prefix tree with inner
    nodes, one ``[terms, level, dense digest]`` record each."""
    rng = np.random.default_rng(2023)
    records = []
    for _ in range(150):
        d = int(rng.integers(2, 5))
        records.append(_golden_record(evaluate(d, _seeded_program(rng, d, int(rng.integers(1, 6))))[0]))
    alg = AtomicAlgebra(2)
    embedded = [embed_word(w, alg) for w in _prefix_tree_words(rng, 12, 4)]
    for i, x in enumerate(embedded):
        records.extend(_golden_record(x * y) for y in embedded[i + 1:])
        records.extend(_golden_record(x.tensor(y)) for y in embedded if y is not x)
    return records


def test_tensor_programs_match_the_library_golden_file():
    assert tensor_golden_records() == json.loads(TENSOR_GOLDEN.read_text(encoding="utf-8"))
