"""The value types as values: immutable, copied as themselves, pickled,
hashed consistently with equality, and refusing bad input without a numpy
warning."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstar_info.algebra import (
    AtomicAlgebra,
    Element,
    GuardExceeded,
    MultiIndex,
    _Frozen,
    embed_at,
    tensor_power,
)
from cstar_info.channel import (
    Channel,
    ConvergenceError,
    JointState,
    LosslessChannel,
    bec,
    bsc,
    capacity,
    coding_experiment,
)
from cstar_info.information import (
    Code,
    Source,
    aep_projection,
    aep_typical_set,
    huffman_code,
    kraft_check,
    kraft_construct,
)
from cstar_info.probability import (
    ProductState,
    State,
    chebyshev_tail,
    lln_moment,
    lln_moment_sweep,
    lln_sweep,
    sum_pushforward,
)

A2 = AtomicAlgebra(2)


def _values():
    half = State(A2, [0.5, 0.5])
    return {
        "AtomicAlgebra": AtomicAlgebra(3, labels="xyz"),
        "Element": Element(A2, [1.0, -2.5j]),
        "MultiIndex": MultiIndex({1: 0, 4: 1}),
        "TensorElement": tensor_power(Element(A2, [0.25, 0.75]), 3) + embed_at(A2.atom(1), 2),
        "State": State(A2, [0.25, 0.75]),
        "ProductState": ProductState([half], State(A2, [0.1, 0.9])),
        "JointState": JointState(bsc(0.1), half, 2),
        "Channel": bsc(0.1),
        "Source": Source.from_weights([0.5, 0.5], labels="ab"),
        "Code": Code(["0", "10", "11"], 2),
        "LosslessChannel": LosslessChannel([[0.5, 0.5, 0, 0], [0, 0, 0.25, 0.75]], (0, 0, 1, 1)),
    }


_ARRAY_SLOTS = {"Element": "coeffs", "State": "weights", "Channel": "matrix",
                "LosslessChannel": "matrix"}


def test_every_value_type_is_listed():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    public = {cls.__name__ for cls in subclasses(_Frozen)
              if cls.__module__.startswith("cstar_info.") and not cls.__name__.startswith("_")}
    assert public == set(_values())


@pytest.mark.parametrize("name", sorted(_values()))
def test_attribute_assignment_is_refused(name):
    value = _values()[name]
    for attr in type(value).__slots__ + ("anything",):
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            setattr(value, attr, None)


@pytest.mark.parametrize("name", sorted(_values()))
def test_a_copy_is_the_value_itself(name):
    value = _values()[name]
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy([value, value])[0] is value


@pytest.mark.parametrize("name", sorted(_values()))
def test_pickle_round_trips(name):
    value = _values()[name]
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back is not value
    assert repr(back) == repr(value)
    if type(value).__eq__ is not object.__eq__:
        assert back == value and hash(back) == hash(value)
    if name in _ARRAY_SLOTS:
        array = getattr(back, _ARRAY_SLOTS[name])
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    if name == "TensorElement":
        assert back.terms == value.terms
    if name == "ProductState":
        assert back.factors == value.factors and back.tail == value.tail
    if name == "JointState":
        assert back.pair_state == value.pair_state and back.level == value.level
        assert np.array_equal(back.weights, value.weights)
    if name == "Source":
        assert back.state == value.state and back.algebra == value.algebra
    with pytest.raises(AttributeError):
        back.anything = None


_SIGNED = st.sampled_from([0.0, -0.0, 0.5, 0.25, 1.0])


def _flip_zeros(values, flips):
    return [-v if v == 0 and f else v for v, f in zip(values, flips)]


@settings(max_examples=100)
@given(st.lists(st.tuples(_SIGNED, _SIGNED), min_size=1, max_size=4),
       st.lists(st.booleans(), min_size=8, max_size=8),
       st.lists(st.tuples(_SIGNED, _SIGNED), min_size=1, max_size=4))
def test_equal_elements_hash_alike(pairs, flips, others):
    alg = AtomicAlgebra(len(pairs))
    x = Element(alg, [complex(re, im) for re, im in pairs])
    flipped = _flip_zeros([v for pair in pairs for v in pair], flips)
    y = Element(alg, [complex(re, im) for re, im in zip(flipped[::2], flipped[1::2])])
    assert x == y and hash(x) == hash(y)
    z = Element(AtomicAlgebra(len(others)), [complex(re, im) for re, im in others])
    if x == z:
        assert hash(x) == hash(z)


@settings(max_examples=100)
@given(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=1, max_size=4).filter(any),
       st.lists(st.booleans(), min_size=4, max_size=4))
def test_equal_states_and_channels_hash_alike(counts, flips):
    weights = [c / sum(counts) for c in counts]
    flipped = _flip_zeros(weights, flips)
    alg = AtomicAlgebra(len(weights))
    x, y = State(alg, weights), State(alg, flipped)
    assert x == y and hash(x) == hash(y)
    c, d = Channel([weights, flipped]), Channel([flipped, weights])
    assert (c == d) == (weights == flipped)
    if c == d:
        assert hash(c) == hash(d)


# library fuzz ------------------------------------------------------------------------

_EXTREMES = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, math.nan, math.inf, -math.inf, 1e300, -1e300,
             1e-300, 5e-324, 1e308]
_FLOATS = st.one_of(st.sampled_from(_EXTREMES), st.floats())


def _vectors():
    normalised = st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(any).map(
        lambda ks: [k / sum(ks) for k in ks])
    tiny = st.lists(st.sampled_from([0.0, 1e-300, 5e-324]), min_size=0, max_size=2).map(
        lambda rest: [1.0] + rest)
    large = st.lists(st.sampled_from([1e308, 1e300, 1.0, 0.0, -1e300]), min_size=1, max_size=3)
    ragged = st.lists(st.lists(_FLOATS, max_size=2), min_size=1, max_size=2)
    return st.one_of(normalised, normalised, tiny, large, st.lists(_FLOATS, max_size=4), ragged)


def _matrices():
    return st.one_of(
        st.lists(_vectors(), min_size=1, max_size=3),
        st.lists(_vectors(), min_size=1, max_size=3).map(
            lambda rows: [row[:1] * 3 if len(row) == 1 else row for row in rows]),
    )


def _outcome(call):
    """A call's result, or None when it refuses with one of the library's
    errors; anything else fails the test, numpy warnings included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the library's own notices, e.g. a rate at or above capacity
        warnings.filterwarnings("ignore", category=UserWarning, module="cstar_info")
        try:
            return call()
        except (ValueError, GuardExceeded, ConvergenceError):
            return None


def _state(weights):
    return _outcome(lambda: State(AtomicAlgebra(max(len(weights), 1)), weights))


@settings(max_examples=300)
@given(_vectors(), st.integers(1, 4))
def test_fuzz_state(weights, dim):
    _state(weights)
    _outcome(lambda: State(AtomicAlgebra(dim), weights))


@settings(max_examples=300)
@given(_matrices(), st.sampled_from([None, 0, 1, 2, 3, 1e400, math.nan]))
def test_fuzz_channel_and_from_dict(matrix, dim):
    _outcome(lambda: Channel(matrix))
    data = {"input_dim": len(matrix) if dim is None else dim,
            "output_dim": len(matrix[0]) if isinstance(matrix[0], list) else 0,
            "matrix": matrix}
    _outcome(lambda: Channel.from_dict(data))


@settings(max_examples=150)
@given(_matrices(), st.sampled_from([1e-9, 1e-3, 0.0, -1.0, math.nan, math.inf, True, "1e-9"]),
       st.sampled_from([1, 30, 200, 0, math.inf, 2.5, True]))
@example([[0.9, 0.1], [0.2, 0.8]], 1e-9, math.inf)
def test_fuzz_capacity(matrix, tol, max_iter):
    channel = _outcome(lambda: Channel(matrix))
    if channel is not None:
        _outcome(lambda: capacity(channel, tol, max_iter))


_HALF = State(A2, [0.5, 0.5])


@pytest.mark.parametrize("call", [
    lambda: capacity(bsc(0.1), tol=True),
    lambda: capacity(bsc(0.1), tol="1e-9"),
    lambda: capacity(bsc(0.1), tol=math.inf),
    lambda: State(A2, [0.7, 0.7], tol=math.nan),
    lambda: State(A2, [0.5, 0.5], tol=True),
    lambda: _HALF.is_pure(tol=math.nan),
    lambda: Channel([[1.0, 0.0], [0.0, 1.0]], tol="0.1"),
    lambda: lln_sweep(_HALF, [2], 2, 0.1, merge_tol=math.nan),
    lambda: lln_sweep(_HALF, [2], 2, True),
    lambda: aep_typical_set(Source.from_weights([0.5, 0.5]), 4, "0.1"),
    lambda: coding_experiment(bsc(0.1), _HALF, np.float64(np.nan), [2]),
], ids=["capacity-bool", "capacity-str", "capacity-inf", "state-nan", "state-bool",
        "is_pure-nan", "channel-str", "merge_tol-nan", "eps-bool", "eps-str", "rate-nan"])
def test_real_parameters_refuse_bools_strings_nan_and_inf(call):
    with pytest.raises(ValueError, match=" must be "):
        call()


_TOL_RULE = "must be a finite real number >= 0, got "


@pytest.mark.parametrize("call, message", [
    (lambda: bsc(True), "crossover probability must be in [0, 1], got True"),
    (lambda: bec(True), "erasure probability must be in [0, 1], got True"),
    (lambda: bsc(-0.25), "crossover probability must be in [0, 1], got -0.25"),
    (lambda: bec(math.nan), "erasure probability must be in [0, 1], got nan"),
    (lambda: Element(A2, [1, 2]).equals(Element(A2, [1, 2]), tol=-1), "tol " + _TOL_RULE + "-1.0"),
    (lambda: State(A2, [0.5, 0.5], tol=-0.5), "tol " + _TOL_RULE + "-0.5"),
    (lambda: lln_sweep(_HALF, [2], 2, 0.1, merge_tol=-1e-12), "merge_tol " + _TOL_RULE + "-1e-12"),
    (lambda: capacity(bsc(0.1), tol=-1.0), "tol " + _TOL_RULE + "-1.0"),
    (lambda: capacity(bsc(0.1), tol=math.nan), "tol " + _TOL_RULE + "nan"),
    (lambda: capacity(bsc(0.1), max_iter=0), "max_iter must be an integer >= 1, got 0"),
    (lambda: capacity(bsc(0.1), max_iter=np.int64(-3)), "max_iter must be an integer >= 1, got -3"),
    (lambda: lln_sweep(_HALF, [2], 2, -0.0), "eps must be positive and finite, got -0.0"),
    (lambda: aep_typical_set(Source.from_weights([0.5, 0.5]), 0, 0.1),
     "block length must be an integer >= 1, got 0"),
    (lambda: aep_projection(Source.from_weights([0.5, 0.5]), -3, 0.1),
     "block length must be an integer >= 1, got -3"),
    (lambda: sum_pushforward([0.0, 1.0], [0.5, 0.5], 0), "n must be an integer >= 1, got 0"),
    (lambda: lln_sweep(_HALF, [2, 0], 2, 0.1), "n must be an integer >= 1, got 0"),
    (lambda: lln_moment(_HALF, np.int64(0), 2), "n must be an integer >= 1, got 0"),
    (lambda: chebyshev_tail(_HALF, -1, 0.1), "n must be an integer >= 1, got -1"),
    (lambda: lln_sweep(_HALF, [2], 0, 0.1), "moment order must be an integer >= 1, got 0"),
    (lambda: lln_moment_sweep(_HALF, [2], -2), "moment order must be an integer >= 1, got -2"),
], ids=["bsc-bool", "bec-bool", "bsc-negative", "bec-nan", "equals-negative", "state-negative",
        "merge_tol-negative", "capacity-tol-negative", "capacity-tol-nan", "capacity-max_iter-0",
        "capacity-max_iter-negative", "eps-negative-zero", "aep-n-0", "projection-n-negative",
        "pushforward-n-0", "lln-n-0", "moment-n-0", "chebyshev-n-negative", "lln-k-0",
        "moment-sweep-k-negative"])
def test_real_parameters_refuse_values_outside_their_range(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


_X = Element(A2, [0.25, 0.75])


@pytest.mark.parametrize("call, message", [
    (lambda: AtomicAlgebra(2.5), "algebra dimension must be an integer, got 2.5"),
    (lambda: AtomicAlgebra(0), "algebra dimension must be an integer >= 1, got 0"),
    (lambda: Element.from_dict({"dim": 2.7, "coeffs": [[1.0, 0.0], [0.0, 0.0]]}),
     "serialized dim must be an integer, got 2.7"),
    (lambda: tensor_power(_X, 2.5), "tensor power must be an integer, got 2.5"),
    (lambda: tensor_power(_X, 0), "tensor power must be an integer >= 1, got 0"),
    (lambda: embed_at(_X, True), "tensor position must be an integer, got True"),
    (lambda: embed_at(_X, 2.5), "tensor position must be an integer, got 2.5"),
    (lambda: embed_at(_X, 0), "tensor position must be an integer >= 1, got 0"),
    (lambda: Code(["0", "1"], 2.5), "alphabet size must be an integer, got 2.5"),
    (lambda: kraft_check([1, 2.5], 2), "codeword length must be an integer, got 2.5"),
    (lambda: kraft_check([1, 2], True), "alphabet size must be an integer, got True"),
    (lambda: kraft_check([1, 0], 2), "codeword length must be an integer >= 1, got 0"),
    (lambda: kraft_construct([1, 2], 2.5), "alphabet size must be an integer, got 2.5"),
    (lambda: kraft_construct([1, math.inf], 2), "codeword length must be an integer, got inf"),
    (lambda: huffman_code(_HALF, 2.5), "alphabet size must be an integer, got 2.5"),
], ids=["algebra-dim-float", "algebra-dim-0", "from_dict-dim-float", "power-float", "power-0",
        "position-bool", "position-float", "position-0", "code-alphabet-float",
        "kraft-length-float", "kraft-alphabet-bool", "kraft-length-0", "construct-alphabet-float",
        "construct-length-inf", "huffman-alphabet-float"])
def test_counts_refuse_values_that_are_not_whole(call, message):
    # int() would truncate 2.5 and 2.7 to 2 and read True as 1
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@settings(max_examples=300)
@given(_vectors(), st.lists(st.integers(-1, 25), min_size=1, max_size=3),
       st.sampled_from([1, 2, 3, 40, 0]), _FLOATS, st.one_of(st.none(), _vectors()))
def test_fuzz_lln_sweep(weights, ns, k, eps, values):
    omega = _state(weights)
    if omega is not None:
        observable = None if values is None else _outcome(lambda: Element(omega.algebra, values))
        _outcome(lambda: lln_sweep(omega, ns, k, eps, observable))


@settings(max_examples=300)
@given(_vectors(), st.one_of(st.integers(-1, 30), st.sampled_from([10 ** 8, 2 ** 64])), _FLOATS)
def test_fuzz_aep_typical_set(weights, n, eps):
    omega = _state(weights)
    if omega is not None:
        _outcome(lambda: aep_typical_set(Source(omega.algebra, omega), n, eps))


@settings(max_examples=200)
@given(_vectors(), st.sampled_from([2, 3, 10, 1, 11]))
def test_fuzz_huffman_code(weights, alphabet):
    omega = _state(weights)
    if omega is not None:
        _outcome(lambda: huffman_code(omega, alphabet))


@settings(max_examples=100)
@given(_matrices(), _vectors(), st.one_of(_FLOATS, st.floats(0.2, 1.5)),
       st.sampled_from([[1], [2, 3], [4], [0], [40], [math.inf], [2.5], [True]]),
       st.sampled_from([1, 2, 0, math.inf, 2.5, True]))
@example([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5], 0.4, [4], math.inf)
@example([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5], 0.4, [math.inf], 1)
def test_fuzz_coding_experiment(matrix, weights, rate, ks, trials):
    channel = _outcome(lambda: Channel(matrix))
    omega = _state(weights)
    if channel is not None and omega is not None:
        _outcome(lambda: coding_experiment(channel, omega, rate, ks, trials=trials, seed=3))
