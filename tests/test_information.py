"""Unit tests for entropy, typical sets, and prefix coding."""

import itertools
import json
import math
import pathlib
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cstar_info.algebra import (
    AlgebraMismatch,
    AtomicAlgebra,
    Element,
    GuardExceeded,
    MultiIndex,
    TensorElement,
    tensor_power,
    trace,
)
from cstar_info import information
from cstar_info.information import (
    Code,
    TYPE_GUARD_BITS,
    Source,
    aep_projection,
    aep_typical_set,
    code_metrics,
    embed_word,
    entropy,
    huffman_code,
    is_prefix_free,
    kraft_check,
    kraft_construct,
    source_output,
)
from cstar_info.probability import ProductState, State
from test_tensor import _golden_record as tensor_golden_record

RNG = np.random.default_rng(515253)


def make_source(weights):
    return Source.from_weights(weights)


# entropy ----------------------------------------------------------------------


def test_entropy_known_values():
    alg2 = AtomicAlgebra(2)
    assert entropy(State(alg2, [0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    assert entropy(State(alg2, [1.0, 0.0])) == 0.0
    assert entropy(State(alg2, [0.9, 0.1])) == pytest.approx(0.46899559358928117, abs=1e-15)
    assert entropy(State(alg2, [0.8, 0.2])) == pytest.approx(0.7219280948873623, abs=1e-15)
    alg3 = AtomicAlgebra(3)
    assert entropy(State(alg3, [0.5, 0.25, 0.25])) == pytest.approx(1.5, abs=1e-15)
    alg4 = AtomicAlgebra(4)
    assert entropy(State.uniform(alg4)) == pytest.approx(2.0, abs=1e-12)
    # in base-n digits
    assert entropy(State.uniform(alg4), 4) == pytest.approx(1.0, abs=1e-15)
    assert entropy(State(alg3, [0.5, 0.25, 0.25]), 3) == pytest.approx(1.5 / math.log2(3))
    for base in (1, 0.5, 0, math.nan):
        with pytest.raises(ValueError, match="base"):
            entropy(State.uniform(alg4), base)


def test_entropy_bounds_random():
    for _ in range(100):
        d = int(RNG.integers(2, 9))
        w = RNG.uniform(0, 1, d)
        s = State(AtomicAlgebra(d), w / w.sum())
        h = entropy(s)
        assert -1e-12 <= h <= math.log2(d) + 1e-12


def test_source_output_observable():
    src = make_source([0.2, 0.3, 0.5])
    x = source_output(src)
    assert np.allclose(x.coeffs, [0.0, 1.0, 2.0])
    assert x.is_self_adjoint()
    assert src.state(x).real == pytest.approx(1.3)


# typical sets -------------------------------------------------------------------


def oracle_typical(weights, n, eps):
    """Independent enumeration with per-string products."""
    h = -sum(w * math.log2(w) for w in weights if w > 0)
    count, mass = 0, 0.0
    for s in itertools.product(range(len(weights)), repeat=n):
        p = math.prod(weights[i] for i in s)
        if p <= 0.0:
            continue
        info = -sum(math.log2(weights[i]) for i in s) / n
        if abs(info - h) <= eps + 1e-12:
            count += 1
            mass += p
    return count, mass


def binomial_typical_mass(p1, n, eps):
    """Exact typical mass for a binary source from binomial counts."""
    h = -(p1 * math.log2(p1) + (1 - p1) * math.log2(1 - p1))
    mass = 0.0
    for j in range(n + 1):  # j = occurrences of the rare symbol
        info = -(j * math.log2(1 - p1) + (n - j) * math.log2(p1)) / n
        if abs(info - h) <= eps + 1e-12:
            mass += math.comb(n, j) * (p1 ** (n - j)) * ((1 - p1) ** j)
    return mass


def test_typical_set_matches_enumeration_oracle():
    for weights, n, eps in [
        ([0.9, 0.1], 6, 0.2),
        ([0.9, 0.1], 9, 0.35),
        ([0.7, 0.2, 0.1], 5, 0.3),
        ([0.5, 0.5], 7, 0.1),
    ]:
        report = aep_typical_set(make_source(weights), n, eps)
        count, mass = oracle_typical(weights, n, eps)
        assert report.count == count
        assert report.prob_mass == pytest.approx(mass, abs=1e-12)


def test_typical_set_binary_matches_binomial():
    for n in (1, 5, 10, 16):
        report = aep_typical_set(make_source([0.9, 0.1]), n, 0.2)
        assert report.prob_mass == pytest.approx(binomial_typical_mass(0.9, n, 0.2), abs=1e-12)


def test_uniform_source_all_typical():
    for d, n in ((2, 10), (4, 6)):
        src = make_source([1.0 / d] * d)
        report = aep_typical_set(src, n, 0.05)
        assert report.count == d ** n
        assert report.prob_mass == 1.0
        assert report.mass_ok and report.count_ok


def test_deterministic_source_single_string():
    report = aep_typical_set(make_source([1.0, 0.0]), 8, 0.1)
    assert report.entropy == 0.0
    assert report.count == 1  # zero-probability strings are never typical
    assert report.prob_mass == pytest.approx(1.0)
    assert report.mass_ok and report.count_ok


def test_count_bounds_always_hold_above():
    src = make_source([0.9, 0.1])
    for n in range(1, 15):
        r = aep_typical_set(src, n, 0.2)
        assert r.count <= r.upper_bound * (1 + 1e-12)
        if r.mass_ok:
            assert r.count >= r.lower_bound * (1 - 1e-12)


def test_typical_mass_converges_past_small_blocks():
    # For the (0.9, 0.1) source at eps = 0.2 the typical mass crosses 1 - eps
    # late: it first exceeds 0.8 at n = 25 and stays above only from n = 37 on.
    masses = {n: binomial_typical_mass(0.9, n, 0.2) for n in range(1, 121)}
    assert max(masses[n] for n in range(1, 21)) < 0.75  # never close before n = 20
    first_crossing = min(n for n, m in masses.items() if m > 0.8)
    assert first_crossing == 25
    stable = min(n for n in masses if all(masses[k] > 0.8 for k in range(n, 121)))
    assert stable == 37
    # the library's own enumeration agrees where it can reach
    got = aep_typical_set(make_source([0.9, 0.1]), 20, 0.2)
    assert got.prob_mass == pytest.approx(masses[20], abs=1e-12)
    assert not got.mass_ok


def test_aep_projection_properties():
    src = make_source([0.75, 0.25])
    n, eps = 6, 0.3
    q = aep_projection(src, n, eps)
    report = aep_typical_set(src, n, eps)
    assert len(q.terms) == report.count
    assert trace(q, level=n).real == pytest.approx(report.count)
    # projection: q = q* = q^2
    assert (q * q).equals(q)
    assert q.star().equals(q)
    # commutes with the n-fold tensor power of the output observable
    obs = tensor_power(source_output(src), n)
    assert (q * obs).equals(obs * q)
    # the state of the typical event equals the enumerated mass
    omega_n = ProductState.iid(src.state)
    assert omega_n(q).real == pytest.approx(report.prob_mass, abs=1e-12)


_EPS_SHIFTS = {
    "at": lambda e: e,
    "+1 ulp": lambda e: float(np.nextafter(e, math.inf)),
    "-1 ulp": lambda e: float(np.nextafter(e, 0.0)),
    "+1e-13": lambda e: e + 1e-13,
    "-1e-13": lambda e: e - 1e-13,
}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=2, max_size=3).filter(lambda ks: sum(ks) > max(ks)),
       st.integers(1, 9), st.data(), st.sampled_from(sorted(_EPS_SHIFTS)))
def test_aep_projection_keeps_the_strings_the_report_counts(ks, n, data, shift):
    # eps at the distance of a drawn type's rate from H, or next to it, so
    # that type sits on the edge of the typical set
    source = make_source([k / sum(ks) for k in ks])
    w = source.state.weights[source.state.weights > 0]
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=w.size - 1, max_size=w.size - 1)))
    counts = np.diff([0] + cuts + [n])
    rate = -float(np.dot(counts, np.log2(w))) / n
    eps = _EPS_SHIFTS[shift](abs(rate - entropy(source.state)))
    assume(eps > 0.0)
    report = aep_typical_set(source, n, eps)
    q = aep_projection(source, n, eps)
    assert len(q.terms) == report.count
    assert trace(q, level=n) == report.count


def test_aep_projection_past_the_dense_guard():
    # 2**30 strings, of which 31,900 are typical: only the typical types
    # are expanded
    src = make_source([0.9, 0.1])
    q = aep_projection(src, 30, 0.2)
    report = aep_typical_set(src, 30, 0.2)
    assert len(q.terms) == report.count == 31900
    assert q.level == 30
    assert ProductState.iid(src.state)(q).real == pytest.approx(report.prob_mass, abs=1e-12)
    # 4,598,438 typical strings at n = 40 are refused before any is formed
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(GuardExceeded, match="typical strings, 4598438,"):
            aep_projection(src, 40, 0.2)
        assert time.perf_counter() - start < 1.0
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_aep_projection_guards_the_atoms_of_a_long_block():
    # one rare symbol in 10**5: 100,000 typical strings fit the term cap,
    # but their 10**10 atoms are refused before any string is formed
    src = make_source([1 - 1e-5, 1e-5])
    assert aep_typical_set(src, 100000, 1e-4).count == 100000
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match="atoms in 100000 typical strings of length 100000"):
            aep_projection(src, 100000, 1e-4)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_aep_projection_guard_bits_lift_the_type_class_guard():
    # C(103, 3) = 176,851 type classes of four atoms are above 2**17; only
    # the string of the first atom alone is typical
    src = make_source([1 - 3e-4, 1e-4, 1e-4, 1e-4])
    with pytest.raises(GuardExceeded, match="type classes"):
        aep_projection(src, 100, 0.005)
    q = aep_projection(src, 100, 0.005, guard_bits=18)
    assert q.terms == {MultiIndex({pos: 0 for pos in range(1, 101)}): 1.0}


def test_aep_guard():
    src = make_source([0.5, 0.5])
    with pytest.raises(GuardExceeded):
        aep_typical_set(src, 1 << TYPE_GUARD_BITS, 0.1)  # one type class too many
    with pytest.raises(GuardExceeded):
        aep_typical_set(src, 30, 0.1, guard_bits=4)  # 31 type classes
    report = aep_typical_set(src, 30, 0.1, guard_bits=5)
    assert report.count == 2 ** 30
    with pytest.raises(GuardExceeded):
        aep_typical_set(src, 1000, 0.1, guard_bits=64)  # 2**1100 is not a float
    with pytest.raises(GuardExceeded):
        aep_projection(src, 21, 0.5)  # 2**21 typical strings exceed the term cap
    with pytest.raises(ValueError):
        aep_typical_set(src, 0, 0.1)
    with pytest.raises(ValueError):
        aep_typical_set(src, 4, 0.0)


def test_typical_set_counts_the_interval_edges():
    # rates 1, 1.25, 1.5, 1.75, 2 around H = 1.5: both edges of the closed
    # interval of radius 0.25 are exact floats and their strings count
    src = make_source([0.5, 0.25, 0.25])
    report = aep_typical_set(src, 4, 0.25)
    assert (report.count, report.prob_mass) == oracle_typical([0.5, 0.25, 0.25], 4, 0.25)
    assert report.count == 4 * 8 + 6 * 4 + 4 * 2
    assert report.prob_mass == 0.875


def test_typical_set_beyond_enumeration():
    # the crossings of test_typical_mass_converges_past_small_blocks, and a
    # block length whose d**n strings could never be listed
    src = make_source([0.9, 0.1])
    for n in (25, 37, 1000):
        report = aep_typical_set(src, n, 0.2)
        assert report.prob_mass == pytest.approx(binomial_typical_mass(0.9, n, 0.2), abs=1e-12)
        assert report.mass_ok and report.count_ok
    assert not aep_typical_set(src, 36, 0.2).mass_ok


@st.composite
def typical_set_cases(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, {2: 10, 3: 7, 4: 6}[d]))  # at most 4096 strings
    if draw(st.booleans()):
        # dyadic weights: split a unit mass in halves, then pad with zeros
        weights = [1.0]
        for _ in range(draw(st.integers(0, d - 1))):
            half = weights.pop(draw(st.integers(0, len(weights) - 1))) / 2
            weights += [half, half]
        weights += [0.0] * (d - len(weights))
        weights = draw(st.permutations(weights))
    else:
        ints = draw(st.lists(st.integers(0, 6), min_size=d, max_size=d).filter(any))
        weights = [k / sum(ints) for k in ints]
    eps = draw(st.sampled_from([0.05, 0.125, 0.25, 0.3, 0.5, 0.75, 1.0, 2.0]))
    return list(weights), n, eps


@settings(max_examples=150)
@given(typical_set_cases())
def test_typical_set_types_match_string_enumeration(case):
    weights, n, eps = case
    report = aep_typical_set(make_source(weights), n, eps)
    count, mass = oracle_typical(weights, n, eps)
    assert report.count == count
    assert abs(report.prob_mass - mass) <= 1e-12


@st.composite
def typical_window_cases(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 60))
    ints = draw(st.lists(st.integers(0, 6), min_size=d, max_size=d).filter(any))
    weights = [k / sum(ints) for k in ints]
    if draw(st.booleans()):
        eps = draw(st.sampled_from([1e-9, 0.05, 0.125, 0.25, 0.5, 1.0, 2.0]))
    else:
        # a band edge: the distance of one type's rate from the entropy
        h = entropy(make_source(weights).state)
        positive = [math.log2(w) for w in weights if w > 0.0]
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=len(positive) - 1,
                                    max_size=len(positive) - 1)))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        eps = abs(-sum(c * lw for c, lw in zip(counts, positive)) / n - h) or 0.25
    return weights, n, eps


@settings(max_examples=150)
@given(typical_window_cases())
def test_typical_run_equals_the_full_scan(case):
    # the last two atoms' loop tests only the counts next to the eps band;
    # the full scan tests every count from 0 to the symbols left
    weights, n, eps = case
    source = make_source(weights)
    report = aep_typical_set(source, n, eps)
    full_scan = lambda lp, w, last, left, *band: range(left + 1)  # noqa: E731
    with mock.patch.object(information, "_typical_run", full_scan):
        want = aep_typical_set(source, n, eps)
    assert (report.count, report.prob_mass) == (want.count, want.prob_mass)


# prefix codes -------------------------------------------------------------------


def random_prefix_free(rng, alphabet_size, max_expansions=5):
    """Grow a random full code by leaf expansion, then drop some leaves."""
    leaves = [""]
    for _ in range(int(rng.integers(1, max_expansions + 1))):
        at = int(rng.integers(0, len(leaves)))
        w = leaves.pop(at)
        leaves.extend(w + str(d) for d in range(alphabet_size))
    keep = [w for w in leaves if rng.uniform() < 0.8]
    if len(keep) < 2:
        keep = leaves
    return Code(tuple(keep), alphabet_size)


def test_code_validation():
    with pytest.raises(ValueError):
        Code(("0", "2"), 2)
    with pytest.raises(ValueError):
        Code(("0", ""), 2)
    with pytest.raises(ValueError):
        Code((), 2)
    with pytest.raises(ValueError):
        Code(("0",), 1)
    # other scripts' digits are refused: "\u0661" (Arabic-Indic one) would
    # embed as the word "1"
    for words in (("1", "\u0661"), ("0", "\uff11"), ("0", "\u00b2")):
        with pytest.raises(ValueError, match="outside 0..1"):
            Code(words, 2)
    # the message names the first word at fault, in the order given
    for words, message in ((("0", "12", "", "3"), "word '12' uses digits outside 0..1"),
                           (("0", "", "12"), "codewords must be nonempty")):
        with pytest.raises(ValueError) as caught:
            Code(words, 2)
        assert str(caught.value) == message
    c = Code(("0", "10", "11"), 2)
    assert c.lengths == (1, 2, 2)
    assert c.source_dim == 3


_THIRDS = State.uniform(AtomicAlgebra(3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Source(AtomicAlgebra(3), [1 / 3] * 3), TypeError, "state must be a State"),
    (lambda: Source(AtomicAlgebra(2), _THIRDS), AlgebraMismatch,
     "state lives on AtomicAlgebra(3), not AtomicAlgebra(2)"),
    (lambda: code_metrics(Code(("0", "1"), 2), _THIRDS), AlgebraMismatch,
     "code has 2 words, state has 3 atoms"),
    (lambda: code_metrics(Code(("0", "01", "1"), 2), _THIRDS), ValueError,
     "expected-length bounds require a prefix-free code"),
    (lambda: embed_word("", AtomicAlgebra(2)), ValueError, "cannot embed the empty word"),
], ids=["source-state", "source-algebra", "metrics-size", "metrics-prefix", "embed-empty"])
def test_sources_codes_and_words_refuse_bad_input(call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()


def test_embed_word_refuses_non_ascii_digits():
    # int("\u0661") is 1, so these once embedded as "1", "01" and "2"
    alg = AtomicAlgebra(3)
    for word in ("\u0661", "0\uff11", "\u00b2"):
        with pytest.raises(ValueError, match="outside 0..2"):
            embed_word(word, alg)
    assert embed_word("1", alg) != embed_word("0", alg)


def test_embed_word_refuses_digits_beyond_the_algebra():
    for word, dim in (("2", 2), ("0102", 2), ("9", 3), ("a", 2)):
        with pytest.raises(ValueError, match="outside 0..%d" % (dim - 1)):
            embed_word(word, AtomicAlgebra(dim))
    word = embed_word("21", AtomicAlgebra(3))
    assert word.terms == {MultiIndex({1: 2, 2: 1}): 1.0}


def test_embed_word_refuses_a_non_algebra_as_tensor_element_does():
    for make in (lambda dim: embed_word("01", dim), TensorElement):
        with pytest.raises(TypeError, match="^factor_algebra must be an AtomicAlgebra$"):
            make(2)


def test_prefix_free_detection():
    assert is_prefix_free(Code(("0", "10", "11"), 2))
    assert not is_prefix_free(Code(("0", "01"), 2))
    assert not is_prefix_free(Code(("10", "10"), 2))  # duplicates collide
    assert is_prefix_free(Code(("0", "1", "2"), 3))


def test_prefix_free_iff_embedded_words_orthogonal():
    alg2 = AtomicAlgebra(2)
    alg3 = AtomicAlgebra(3)
    for _ in range(60):
        n = int(RNG.integers(2, 4))
        alg = alg2 if n == 2 else alg3
        code = random_prefix_free(RNG, n)
        words = code.words
        all_orthogonal = True
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                prod = embed_word(a, alg) * embed_word(b, alg)
                orthogonal = prod.norm() == 0.0
                prefix_related = a.startswith(b) or b.startswith(a)
                assert orthogonal == (not prefix_related)
                all_orthogonal = all_orthogonal and orthogonal
        assert all_orthogonal == is_prefix_free(code)


def test_kraft_check_exact():
    assert kraft_check((1, 2, 2), 2)
    assert not kraft_check((1, 1, 2), 2)
    assert kraft_check((1, 1, 1), 3)
    assert kraft_check((2,) * 9, 3)
    assert not kraft_check((2,) * 10, 3)
    with pytest.raises(ValueError):
        kraft_check((0, 1), 2)
    with pytest.raises(ValueError):
        kraft_check((), 2)


def test_random_prefix_free_codes_satisfy_kraft():
    for _ in range(200):
        n = int(RNG.integers(2, 4))
        code = random_prefix_free(RNG, n)
        assert kraft_check(code.lengths, n)


def test_kraft_construct_example():
    code = kraft_construct((1, 2, 2), 2)
    assert code.words == ("0", "10", "11")
    # input order is preserved, shortest-first allocation happens internally
    scrambled = kraft_construct((2, 1, 2), 2)
    assert scrambled.words == ("10", "0", "11")
    assert scrambled.lengths == (2, 1, 2)
    # the lengths are read once, so an iterator gives the same code
    assert kraft_construct(iter((2, 1, 2)), 2) == scrambled


def test_kraft_construct_feasible_random():
    for _ in range(200):
        n = int(RNG.integers(2, 4))
        lengths = tuple(int(k) for k in RNG.integers(1, 7, size=RNG.integers(1, 8)))
        if kraft_check(lengths, n):
            code = kraft_construct(lengths, n)
            assert code.lengths == lengths
            assert is_prefix_free(code)
        else:
            with pytest.raises(ValueError):
                kraft_construct(lengths, n)


def test_code_metrics_example():
    alg = AtomicAlgebra(3)
    state = State(alg, [0.5, 0.25, 0.25])
    code = Code(("0", "10", "11"), 2)
    metrics = code_metrics(code, state)
    assert metrics.expected_length == pytest.approx(1.5)
    assert metrics.bound_value == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        code_metrics(Code(("0", "01", "1"), 2), state)


def test_code_metrics_nonnegative_random():
    for _ in range(200):
        n = int(RNG.integers(2, 4))
        code = random_prefix_free(RNG, n)
        d = code.source_dim
        w = RNG.uniform(0, 1, d)
        state = State(AtomicAlgebra(d), w / w.sum())
        metrics = code_metrics(code, state)
        assert metrics.bound_value >= -1e-9


def test_huffman_example():
    alg = AtomicAlgebra(3)
    code = huffman_code(State(alg, [0.5, 0.25, 0.25]))
    assert code.words == ("0", "10", "11")
    metrics = code_metrics(code, State(alg, [0.5, 0.25, 0.25]))
    assert metrics.expected_length == pytest.approx(1.5)


def test_huffman_deterministic_ties():
    alg = AtomicAlgebra(4)
    state = State.uniform(alg)
    code = huffman_code(state)
    assert code.words == huffman_code(state).words
    assert sorted(code.lengths) == [2, 2, 2, 2]


def test_huffman_optimality_bounds():
    for _ in range(100):
        d = int(RNG.integers(2, 9))
        n = int(RNG.integers(2, 4))
        w = RNG.uniform(0, 1, d)
        state = State(AtomicAlgebra(d), w / w.sum())
        code = huffman_code(state, n)
        assert is_prefix_free(code)
        assert kraft_check(code.lengths, n)
        h_n = entropy(state) / math.log2(n)
        e = code_metrics(code, state).expected_length
        assert h_n - 1e-9 <= e < h_n + 1.0


def test_huffman_beats_random_codes():
    # optimality spot check: no random prefix-free code does better
    for _ in range(50):
        code = random_prefix_free(RNG, 2)
        d = code.source_dim
        w = RNG.uniform(0, 1, d)
        state = State(AtomicAlgebra(d), w / w.sum())
        best = code_metrics(huffman_code(state), state).expected_length
        assert best <= code_metrics(code, state).expected_length + 1e-12


def test_huffman_ternary():
    alg = AtomicAlgebra(4)
    code = huffman_code(State(alg, [0.4, 0.3, 0.2, 0.1]), 3)
    assert is_prefix_free(code)
    assert kraft_check(code.lengths, 3)
    assert max(code.lengths) == 2


@settings(max_examples=150)
@given(st.sampled_from([2, 3]),
       st.lists(st.sampled_from([0, 0, 1, 2, 3, 7]), min_size=1, max_size=9).filter(any))
def test_huffman_lengths_and_noiseless_bounds(n, counts):
    w = np.array(counts, dtype=float) / sum(counts)
    state = State(AtomicAlgebra(len(w)), w)
    code = huffman_code(state, n)
    assert kraft_construct(code.lengths, n).lengths == code.lengths
    positive = w[w > 0]
    h_n = float(-np.sum(positive * np.log(positive)) / np.log(n))  # entropy in base n
    expected = float(np.dot(w, code.lengths))
    metrics = code_metrics(code, state)
    assert metrics.expected_length == pytest.approx(expected, abs=1e-12)
    assert metrics.bound_value == pytest.approx(expected - h_n, abs=1e-12)
    assert h_n - 1e-12 <= expected
    if positive.size > 1:
        assert expected < h_n + 1.0
    else:
        # a point mass has entropy 0, and its word still needs one digit
        assert expected == 1.0


def test_code_serialization():
    code = Code(("0", "10", "11"), 2)
    data = json.loads(json.dumps(code.to_dict()))
    assert data == {"n": 2, "words": ["0", "10", "11"]}
    assert Code.from_dict(data) == code


# library golden file ---------------------------------------------------------

AEP_GOLDEN = pathlib.Path(__file__).parent / "golden" / "library" / "aep_typical_set.json"


def _aep_golden_cases():
    # Seeded sources of two to four atoms, one atom left out of every third,
    # at block lengths up to 60.  Every other eps is the distance of a drawn
    # type's rate from the entropy, moved by one ulp up or down, so that
    # type sits on or next to the boundary of the typical set.
    rng = np.random.default_rng(2024)
    for case in range(60):
        d = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(d))
        if case % 3 == 0:
            weights[int(rng.integers(d))] = 0.0
        source = make_source(weights / weights.sum())
        n = int(rng.integers(1, 61))
        eps = float(rng.uniform(0.01, 0.5))
        if case % 2:
            w = source.state.weights
            counts = rng.multinomial(n, w)
            rate = -float(np.dot(counts[w > 0], np.log2(w[w > 0]))) / n
            eps = abs(rate - entropy(source.state)) or eps
            eps = float(np.nextafter(eps, (0.0, math.inf)[case % 4 == 1]))
        yield source, n, eps


def aep_golden_records():
    """Each case's ``[count, mass, lower bound, upper bound, mass_ok,
    count_ok]``, the count as a decimal string and the floats as
    ``float.hex``."""
    records = []
    for source, n, eps in _aep_golden_cases():
        report = aep_typical_set(source, n, eps)
        records.append([str(report.count), float.hex(report.prob_mass),
                        float.hex(report.lower_bound), float.hex(report.upper_bound),
                        report.mass_ok, report.count_ok])
    return records


def test_aep_typical_set_matches_the_library_golden_file():
    assert aep_golden_records() == json.loads(AEP_GOLDEN.read_text(encoding="utf-8"))


AEP_PROJECTION_GOLDEN = AEP_GOLDEN.with_name("aep_projection.json")


def _aep_projection_golden_cases():
    # Seeded sources of two and three atoms, each at a random eps.  One atom
    # is left out of every fourth three-atom source and of every fourth
    # two-atom source, which then puts out one string.  Block lengths are up
    # to 13 for two atoms and up to 8 for three, so that the file stays small.
    rng = np.random.default_rng(2030)
    for case in range(40):
        d = 2 + case % 2
        weights = rng.dirichlet(np.ones(d))
        if case % 8 in (0, 3):
            weights[int(rng.integers(d))] = 0.0
        n = int(rng.integers(1, (14, 9)[d - 2]))
        yield make_source(weights / weights.sum()), n, float(rng.uniform(0.01, 0.5))


def aep_projection_golden_records():
    """Each case's ``[terms, level, dense digest]``: ``.terms`` in key
    order with coefficients as ``float.hex``, and the SHA-256 of
    ``dense()``, as in the tensor program corpus."""
    return [tensor_golden_record(aep_projection(source, n, eps))
            for source, n, eps in _aep_projection_golden_cases()]


def test_aep_projection_matches_the_library_golden_file():
    assert aep_projection_golden_records() == json.loads(
        AEP_PROJECTION_GOLDEN.read_text(encoding="utf-8"))
