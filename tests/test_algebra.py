"""Unit tests for the atomic-basis algebra layer."""

import functools
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cstar_info import algebra
from cstar_info.algebra import (
    EQ_TOL,
    AlgebraMismatch,
    AtomicAlgebra,
    Element,
    GuardExceeded,
    MultiIndex,
    TensorElement,
    apply_function,
    embed_at,
    tensor_power,
    tensor_product,
    trace,
    truncate_to_level,
)
from cstar_info.channel import Channel
from cstar_info.probability import State

RNG = np.random.default_rng(20260814)


def random_element(algebra, rng=RNG, real=False):
    re = rng.uniform(-4.0, 4.0, algebra.dim)
    im = np.zeros(algebra.dim) if real else rng.uniform(-4.0, 4.0, algebra.dim)
    return Element(algebra, re + 1j * im)


def random_tensor(algebra, rng=RNG, max_level=4, max_terms=5):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        support = rng.choice(
            np.arange(1, max_level + 1), size=rng.integers(1, max_level + 1), replace=False
        )
        idx = MultiIndex({int(p): int(rng.integers(0, algebra.dim)) for p in support})
        terms[idx] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return TensorElement(algebra, terms)


def oracle_dense(t, level):
    """Independent expansion: walk every atomic string explicitly."""
    d = t.factor_algebra.dim
    out = []
    for string in itertools.product(range(d), repeat=level):
        total = 0j
        for idx, c in t.terms.items():
            if all(string[pos - 1] == atom for pos, atom in idx.pairs):
                total += c
        out.append(total)
    return np.array(out, dtype=complex)


# single-factor algebra ------------------------------------------------------


def test_atomic_relations():
    for d in range(1, 9):
        alg = AtomicAlgebra(d)
        atoms = [alg.atom(i) for i in range(d)]
        total = alg.zero()
        for i, e in enumerate(atoms):
            assert e.star().equals(e)
            assert e.norm() == 1.0
            for j, f in enumerate(atoms):
                prod = e * f
                expected = e if i == j else alg.zero()
                assert prod.equals(expected)
            total = total + e
        assert total.equals(alg.identity())


def test_algebra_validation():
    with pytest.raises(ValueError):
        AtomicAlgebra(0)
    with pytest.raises(ValueError):
        AtomicAlgebra(2, labels=("a",))
    with pytest.raises(ValueError):
        AtomicAlgebra(2, labels=("a", "a"))
    alg = AtomicAlgebra(3, labels=("a", "b", "c"))
    assert alg.labels == ("a", "b", "c")
    with pytest.raises(ValueError):
        Element(alg, [1.0, 2.0])


def test_mismatch_rejected():
    a = AtomicAlgebra(2)
    b = AtomicAlgebra(3)
    with pytest.raises(AlgebraMismatch):
        a.identity() + b.identity()
    with pytest.raises(AlgebraMismatch):
        TensorElement.identity(a) * TensorElement.identity(b)


def test_cstar_identity_random():
    for _ in range(200):
        d = int(RNG.integers(1, 9))
        x = random_element(AtomicAlgebra(d))
        assert math.isclose(
            (x * x.star()).norm(), x.norm() ** 2, rel_tol=0, abs_tol=1e-9
        )


def test_norm_properties():
    alg = AtomicAlgebra(5)
    for _ in range(100):
        x = random_element(alg)
        y = random_element(alg)
        assert (x + y).norm() <= x.norm() + y.norm() + 1e-12
        assert (x * y).norm() <= x.norm() * y.norm() + 1e-12
        s = complex(RNG.uniform(-3, 3), RNG.uniform(-3, 3))
        assert math.isclose((s * x).norm(), abs(s) * x.norm(), rel_tol=1e-12, abs_tol=1e-12)


def test_spectrum_basics():
    alg = AtomicAlgebra(3)
    x = Element(alg, [2.0, 3.0, 3.0])
    assert x.spectrum() == (2.0, 3.0)
    assert x.norm() == 3.0
    # spectrum of a projection
    p = Element(alg, [1.0, 0.0, 1.0])
    assert p.is_projection()
    assert p.spectrum() == (0.0, 1.0)


def test_spectral_mapping_random_polynomials():
    for _ in range(200):
        d = int(RNG.integers(2, 9))
        x = random_element(AtomicAlgebra(d), real=True)
        c0, c1, c2 = RNG.uniform(-2, 2, 3)
        f = lambda t: c0 + c1 * t + c2 * t * t
        fx = x.apply(f)
        sp_fx = fx.spectrum()
        f_sp = [f(v.real) for v in x.spectrum()]
        # setwise equality within tolerance, both directions
        for v in sp_fx:
            assert min(abs(v - w) for w in f_sp) <= 1e-9
        for w in f_sp:
            assert min(abs(v - w) for v in sp_fx) <= 1e-9


def test_pos_neg_parts():
    for _ in range(100):
        d = int(RNG.integers(1, 9))
        x = random_element(AtomicAlgebra(d), real=True)
        p, n = x.pos_neg_parts()
        assert p.is_positive() and n.is_positive()
        assert (p - n).equals(x)
        assert (p * n).norm() <= 1e-12
        assert abs(x).equals(p + n)


def test_sqrt_and_positivity():
    alg = AtomicAlgebra(4)
    x = Element(alg, [0.0, 1.0, 4.0, 2.25])
    r = x.sqrt()
    assert (r * r).equals(x)
    assert r.is_positive()
    with pytest.raises(ValueError):
        Element(alg, [-1.0, 0.0, 0.0, 0.0]).sqrt()
    with pytest.raises(ValueError):
        Element(alg, [1j, 0.0, 0.0, 0.0]).sqrt()


def test_projection_predicate_tolerance():
    alg = AtomicAlgebra(2)
    assert Element(alg, [1.0 + 1e-12, 0.0]).is_projection()
    assert not Element(alg, [0.5, 0.0]).is_projection()
    assert Element(alg, [1.0, 1e-10]).is_projection()


def test_functional_calculus_domain():
    alg = AtomicAlgebra(3)
    x = Element(alg, [0.5, 1.0, 0.0])
    with pytest.raises(ValueError):
        x.apply(math.log2)
    ext = x.apply(math.log2, domain_check=False)
    assert ext.equals(Element(alg, [-1.0, 0.0, 0.0]))
    # polynomial annihilates a projection: p**2 - p = 0
    p = Element(alg, [1.0, 0.0, 1.0])
    z = p.apply(lambda t: t * t - t)
    assert z.norm() <= 1e-12


def test_element_serialization_roundtrip():
    alg = AtomicAlgebra(3)
    x = Element(alg, [1.5, -2.0 + 0.25j, 0.0])
    data = x.to_dict()
    assert data == {"dim": 3, "coeffs": [[1.5, 0.0], [-2.0, 0.25], [0.0, 0.0]]}
    y = Element.from_dict(json.loads(json.dumps(data)))
    assert y.equals(x)
    with pytest.raises(AlgebraMismatch):
        Element.from_dict(data, algebra=AtomicAlgebra(2))


# multi-indices --------------------------------------------------------------


def test_multiindex_basics():
    idx = MultiIndex({3: 1, 1: 0})
    assert idx.pairs == ((1, 0), (3, 1))
    assert idx.level == 3
    assert idx.support == (1, 3)
    assert idx.get(1) == 0 and idx.get(2) is None
    assert idx.shifted(2).pairs == ((3, 0), (5, 1))
    assert MultiIndex().level == 0
    with pytest.raises(ValueError):
        MultiIndex([(0, 1)])
    with pytest.raises(ValueError):
        MultiIndex([(1, 0), (1, 1)])


def test_multiindex_equality_hash():
    a = MultiIndex({1: 0, 2: 1})
    b = MultiIndex([(2, 1), (1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != MultiIndex({1: 0})


# tensor elements ------------------------------------------------------------


def test_tensor_product_of_atoms():
    alg = AtomicAlgebra(2)
    t = tensor_product(alg.atom(0), alg.atom(1))
    assert t.terms == {MultiIndex({1: 0, 2: 1}): 1.0 + 0j}
    assert t.level == 2


def test_embedded_scalar_spectrum():
    # 5 * (e_0 at position 1) expanded at level 2 has coefficients {5,5,0,0}...
    alg = AtomicAlgebra(2)
    t = 5.0 * embed_at(alg.atom(0), 1)
    vec = t.dense(level=2)
    assert np.allclose(vec, [5.0, 5.0, 0.0, 0.0])
    assert t.spectrum() == (0.0, 5.0)
    assert t.norm() == 5.0


def test_dense_matches_oracle():
    for _ in range(60):
        d = int(RNG.integers(2, 4))
        t = random_tensor(AtomicAlgebra(d))
        lvl = t.level + int(RNG.integers(0, 2))
        assert np.allclose(t.dense(lvl), oracle_dense(t, lvl), atol=1e-12)


def test_identity_tail_absorption():
    alg = AtomicAlgebra(2)
    e0 = embed_at(alg.atom(0), 1)
    e01 = tensor_product(alg.atom(0), alg.atom(1))
    # e_0 x 1 times e_0 x e_1 keeps the longer string
    assert (e0 * e01).equals(e01)
    # orthogonal at the shared position
    e1 = embed_at(alg.atom(1), 1)
    assert (e1 * e01).norm() == 0.0
    # level-0 identity is the empty word: tensoring after it starts at position 1
    assert TensorElement.identity(alg).tensor(e0).equals(e0)


def test_atoms_at_one_position_sum_to_identity():
    alg = AtomicAlgebra(3)
    total = TensorElement(alg, {})
    for i in range(3):
        total = total + embed_at(alg.atom(i), 2)
    assert total.equals(TensorElement.identity(alg))


def test_tensor_algebra_consistency_random():
    alg = AtomicAlgebra(2)
    for _ in range(40):
        a = random_tensor(alg, max_level=3)
        b = random_tensor(alg, max_level=3)
        lvl = max(a.level, b.level)
        da, db = a.dense(lvl), b.dense(lvl)
        assert np.allclose((a + b).dense(lvl), da + db, atol=1e-12)
        assert np.allclose((a * b).dense(lvl), da * db, atol=1e-12)
        assert np.allclose(a.star().dense(lvl), np.conj(da), atol=1e-12)
        # C*-identity on the tensor level
        assert math.isclose(
            (a * a.star()).norm(), a.norm() ** 2, rel_tol=1e-9, abs_tol=1e-9
        )


def test_truncation_commutes_with_arithmetic():
    alg = AtomicAlgebra(2)
    for _ in range(25):
        a = random_tensor(alg, max_level=6)
        b = random_tensor(alg, max_level=6)
        k = 10
        left = (a * b + a).dense(k)
        right = truncate_to_level(a, k) * truncate_to_level(b, k) + truncate_to_level(a, k)
        assert np.allclose(left, right, atol=1e-12)


def test_tensor_norm_multiplicative():
    for _ in range(40):
        d = int(RNG.integers(2, 4))
        alg = AtomicAlgebra(d)
        a = random_tensor(alg, max_level=3)
        b = random_tensor(alg, max_level=3)
        assert math.isclose(
            a.tensor(b).norm(), a.norm() * b.norm(), rel_tol=1e-9, abs_tol=1e-9
        )


def test_tensor_power_matches_kron():
    alg = AtomicAlgebra(2)
    x = Element(alg, [0.25, 0.75])
    t = tensor_power(x, 3)
    expected = np.array([1.0])
    for _ in range(3):
        expected = np.kron(expected, [0.25, 0.75])
    assert np.allclose(t.dense(3), expected, atol=1e-12)


def test_trace_counts_strings():
    alg = AtomicAlgebra(2)
    t = embed_at(alg.atom(0), 1)
    assert trace(t) == pytest.approx(1.0)  # level 1: one matching string
    assert trace(t, level=3) == pytest.approx(4.0)  # e_0 x 1 x 1 covers 4 strings
    assert trace(TensorElement.identity(alg), level=5) == pytest.approx(32.0)
    with pytest.raises(ValueError):
        trace(t, level=0)


def test_trace_beyond_the_float_range_of_the_string_count():
    alg = AtomicAlgebra(4)
    # 4**599 strings per term: the trace is not a float, and the error says where
    with pytest.raises(ValueError, match="level 600"):
        trace(embed_at(Element(alg, [1.0, 2.0, 3.0, 4.0]), 600))
    # 4**519 strings is beyond the float range, the scaled coefficient is not
    small = embed_at(Element(alg, [1e-10, 0.0, 0.0, 0.0]), 520)
    want = float(Fraction(1e-10) * 4 ** 519)
    assert trace(small) == complex(want, 0.0)
    # below the float range the exact integer path is unchanged
    assert trace(embed_at(Element(alg, [1.0, 2.0, 3.0, 4.0]), 3)) == 160


def test_zero_coefficients_dropped():
    alg = AtomicAlgebra(2)
    t = TensorElement(alg, {MultiIndex({1: 0}): 1.0, MultiIndex({1: 1}): 0.0})
    assert len(t.terms) == 1
    cancel = t - t
    assert cancel.terms == {}
    assert cancel.norm() == 0.0
    assert cancel.level == 0


def test_scalar_level_zero():
    alg = AtomicAlgebra(3)
    s = TensorElement.scalar(alg, 2.5)
    assert s.level == 0
    assert s.spectrum() == (2.5,)
    assert s.norm() == 2.5
    assert trace(s) == pytest.approx(2.5)


def test_dense_guard():
    alg = AtomicAlgebra(2)
    t = embed_at(alg.atom(0), 30)
    with pytest.raises(GuardExceeded):
        t.dense()
    # override admits the expansion
    vec = embed_at(alg.atom(0), 25).dense(guard_bits=25)
    assert vec.shape == (2 ** 25,)


def test_dense_beyond_numpy_axis_limit():
    # numpy allows 64 axes; one string per element here, at levels above that
    one = AtomicAlgebra(1)
    high = embed_at(Element(one, [2.0]), 70)
    assert high.dense().tolist() == [2.0]
    assert high.norm() == 2.0
    assert tensor_power(Element(one, [2.0]), 100).dense().tolist() == [2.0 ** 100]
    # 71 explicit positions with identities between them, and a sum of two blocks
    spread = functools.reduce(lambda a, b: a * b, [embed_at(Element(one, [1.5]), p)
                                                   for p in range(1, 142, 2)])
    (value,) = (spread + high).dense()
    assert value == pytest.approx(1.5 ** 71 + 2.0, rel=1e-14)
    # d = 2: runs of identity positions around explicit ones, against np.kron
    alg = AtomicAlgebra(2)
    a, b = Element(alg, [2.0, 1.0]), Element(alg, [1.0, 3.0])
    x = embed_at(a, 3) * embed_at(b, 4) * embed_at(a, 9)
    ones = np.ones(2)
    want = functools.reduce(np.kron, [ones, ones, a.coeffs, b.coeffs] + [ones] * 4 + [a.coeffs, ones])
    assert np.array_equal(x.dense(10).real, want)


def test_terms_guard(monkeypatch):
    half = Element(AtomicAlgebra(2), [0.5, 0.5])
    x = tensor_power(half, 40)
    start = time.perf_counter()
    for read in (lambda: x == x, lambda: hash(x), x.to_dict, lambda: x.apply(abs)):
        with pytest.raises(GuardExceeded, match="2\\^40"):
            read()
    assert time.perf_counter() - start < 0.1
    with pytest.raises(GuardExceeded):
        tensor_power(half, 200).terms  # 2**200 strings: counted in log2, no overflow
    # the count is the product of the nonzero atoms per position, summed over
    # elementary tensors; one that vanishes somewhere yields no strings
    monkeypatch.setattr(algebra, "TERMS_GUARD_BITS", 4)
    four = tensor_power(half, 4)
    assert len((four + embed_at(half.algebra.zero(), 5)).terms) == 16
    with pytest.raises(GuardExceeded):
        (four + embed_at(half, 5)).terms  # 16 + 2 strings


def test_level_of_a_sum_block_is_guarded(monkeypatch):
    # .level expands a block that sums elementary tensors, to see whether
    # it cancels; it counts the strings first, behind the dense guard
    half = Element(AtomicAlgebra(2), [0.5, 0.5])
    x = tensor_power(half, 16)
    assert (x + x).level == 16
    x = tensor_power(half, 26)
    start = time.perf_counter()
    for read in (lambda: (x + x).level, lambda: (x + x).dense(), lambda: trace(x + x)):
        with pytest.raises(GuardExceeded, match="2\\^27 basis strings in a sum block"):
            read()
    # an explicit level past the last position, and repr, need no such check
    assert trace(x + x, level=26) == pytest.approx(2.0)
    assert repr(x + x).endswith("2 elementary tensors, up to position 26)")
    assert time.perf_counter() - start < 0.1
    # Between the .terms guard and the dense guard the check passes, and
    # guard_bits lifts it; both guards scaled down by 16 bits
    monkeypatch.setattr(algebra, "TERMS_GUARD_BITS", 4)
    monkeypatch.setattr(algebra, "GUARD_BITS", 8)
    x = tensor_power(half, 7)  # x + x: 2^8 strings
    assert (x + x).level == 7
    assert (x + x).norm() == pytest.approx(2.0 ** -6)
    assert (x + x).equals(2.0 * x)
    assert trace(x + x) == pytest.approx(2.0)
    x = tensor_power(half, 8)  # 2^9 strings, 2^8 entries in dense()
    with pytest.raises(GuardExceeded, match="2\\^9 basis strings in a sum block; guard is 2\\^8"):
        (x + x).norm()
    assert (x + x).norm(guard_bits=9) == pytest.approx(2.0 ** -7)
    assert (x + x).equals(2.0 * x, guard_bits=9)


def test_tensor_apply_projection_identity():
    alg = AtomicAlgebra(2)
    q = tensor_product(alg.atom(0), alg.atom(1)) + tensor_product(alg.atom(1), alg.atom(0))
    z = q.apply(lambda t: t * t - t)
    assert z.norm() <= 1e-12
    # extended log2 on a dense positive element: every string carries 0.25
    w = tensor_power(Element(alg, [0.5, 0.5]), 2)
    lg = w.apply(math.log2, domain_check=False)
    assert np.allclose(lg.dense(2), [-2.0, -2.0, -2.0, -2.0])


def test_tensor_apply_sees_implicit_zeros():
    alg = AtomicAlgebra(2)
    t = embed_at(alg.atom(0), 1)  # expansion at level 1: (1, 0)
    shifted = t.apply(lambda v: v + 1.0)
    assert np.allclose(shifted.dense(1), [2.0, 1.0])
    with pytest.raises(ValueError):
        t.apply(math.log2)  # hits the implicit 0
    assert np.allclose(t.apply(math.log2, domain_check=False).dense(1), [0.0, 0.0])


def test_tensor_serialization_roundtrip():
    alg = AtomicAlgebra(3)
    t = TensorElement(
        alg,
        {
            MultiIndex({1: 2}): 0.5,
            MultiIndex({2: 0, 5: 1}): -1.0 + 2.0j,
        },
    )
    data = t.to_dict()
    assert data["dim"] == 3
    assert data["terms"][0]["idx"] == {"1": 2}
    assert data["terms"][1]["idx"] == {"2": 0, "5": 1}
    back = TensorElement.from_dict(json.loads(json.dumps(data)))
    assert back == t
    with pytest.raises(ValueError):
        TensorElement(alg, {MultiIndex({1: 3}): 1.0})


def test_apply_function_dispatch():
    alg = AtomicAlgebra(2)
    x = Element(alg, [1.0, 4.0])
    assert apply_function(x, math.sqrt).equals(Element(alg, [1.0, 2.0]))
    t = TensorElement.scalar(alg, 4.0)
    assert apply_function(t, math.sqrt).equals(TensorElement.scalar(alg, 2.0))


@pytest.mark.parametrize("make", [
    lambda zero: Element(AtomicAlgebra(2), [zero, 1.0]),
    lambda zero: Element(AtomicAlgebra(2), [complex(1.0, zero), 1.0]),
    lambda zero: State(AtomicAlgebra(2), [zero, 1.0]),
    lambda zero: Channel([[1.0, zero], [zero, 1.0]]),
], ids=["element", "element-imaginary", "state", "channel"])
def test_equal_objects_with_signed_zeros_hash_alike(make):
    x, y = make(0.0), make(-0.0)
    assert x == y
    assert hash(x) == hash(y) and len({x, y}) == 1


def test_negated_element_hashes_like_its_equal():
    a = AtomicAlgebra(2)
    x = Element(a, [0.0, 1.0]) * -1.0  # coefficient 0 becomes -0.0
    y = Element(a, [0.0, -1.0])
    assert x == y and len({x, y}) == 1


# row sorts ------------------------------------------------------------------


@st.composite
def _integer_rows(draw):
    base = draw(st.integers(1, 2 ** 20))
    count = draw(st.integers(0, 60))
    width = draw(st.integers(0, 70))
    rows = draw(arrays(np.int64, (count, width), elements=st.integers(0, base - 1)))
    if rows.size:
        # the largest digit sets the packing base
        rows[draw(st.integers(0, count - 1)), draw(st.integers(0, width - 1))] = base - 1
    if count > 1:
        for j in draw(st.lists(st.integers(1, count - 1), max_size=5)):
            rows[j] = rows[draw(st.integers(0, j - 1))]  # forced repeats
    return rows


@settings(max_examples=300)
@given(_integer_rows())
def test_runs_and_kinds_match_a_tuple_sort(rows):
    tuples = [tuple(row) for row in rows.tolist()]
    want = sorted(range(len(tuples)), key=lambda i: tuples[i])
    order, starts = algebra._runs(rows)
    assert order.tolist() == want
    assert starts.tolist() == [i == 0 or tuples[want[i]] != tuples[want[i - 1]]
                               for i in range(len(want))]
    kinds, want_first, want_kind = {}, [], []
    for t in tuples:
        want_first.append(t not in kinds)
        want_kind.append(kinds.setdefault(t, len(kinds)))
    first, kind = algebra._kinds(rows)
    assert first.tolist() == want_first
    assert kind.tolist() == want_kind
    keys = algebra._pack(rows)
    if len(keys) == 1:
        base = int(rows.max(initial=0)) + 1
        digits = algebra._digits(keys[0], base, rows.shape[1])
        assert np.array_equal(np.stack(digits, axis=1), rows)


@pytest.mark.parametrize("base, width, count", [
    (2, 0, 0), (1, 70, 1), (2, 62, 1), (2, 63, 2), (3, 39, 1), (3, 40, 2),
    (8, 60, 3), (8, 61, 4), (2 ** 20, 70, 24),
    # one uint16 key while base**width and the base stay below 2**16
    (2, 15, 1), (2, 16, 1), (255, 2, 1), (256, 2, 1), (2 ** 16 - 1, 1, 1), (2 ** 16, 1, 1),
])
def test_pack_fills_each_key_below_two_to_the_63(base, width, count):
    # the largest row, the zero row, and the largest row with its last digit 0
    rows = np.full((3, width), base - 1)
    rows[1] = 0
    rows[2, width - 1:] = 0
    keys = algebra._pack(rows)
    assert len(keys) == count
    dtype = np.uint16 if base ** width < 2 ** 16 else np.int64
    assert all(key.dtype == dtype and key.min() >= 0 for key in keys)
    if count == 1:
        assert np.array_equal(np.stack(algebra._digits(keys[0], base, width), axis=1), rows)
    order, starts = algebra._runs(rows)
    assert order.tolist() == ([0, 1, 2] if base == 1 or not width else [1, 2, 0])
    # the zero row equals the third row when that has a single digit
    assert starts.tolist() == [True, base > 1 and width > 1, base > 1 and width > 0]
