"""The value types as values: immutable, copied as themselves, pickled,
hashed consistently with equality, and refusing bad input without a numpy
warning."""

import copy
import math
import pickle
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
    bsc,
    capacity,
    coding_experiment,
)
from cstar_info.information import Code, Source, aep_typical_set, huffman_code
from cstar_info.probability import ProductState, State, lln_sweep

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
@given(_matrices(), st.sampled_from([1e-9, 1e-3, 0.0, -1.0, math.nan, math.inf]),
       st.sampled_from([1, 30, 200, 0, math.inf, 2.5, True]))
@example([[0.9, 0.1], [0.2, 0.8]], 1e-9, math.inf)
def test_fuzz_capacity(matrix, tol, max_iter):
    channel = _outcome(lambda: Channel(matrix))
    if channel is not None:
        _outcome(lambda: capacity(channel, tol, max_iter))


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
