"""The value types as values: immutable, copied as themselves, pickled,
hashed consistently with equality, and refusing bad input without a numpy
warning."""

import ast
import copy
import math
import pathlib
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cstar_info
from cstar_info.algebra import (
    AtomicAlgebra,
    Element,
    GuardExceeded,
    MultiIndex,
    TensorElement,
    _Frozen,
    check_guard,
    embed_at,
    tensor_power,
    trace,
    truncate_to_level,
)
from cstar_info.channel import (
    Channel,
    ConvergenceError,
    JointState,
    LosslessChannel,
    bec,
    bsc,
    build_code_and_decoder,
    capacity,
    classify,
    coding_experiment,
    useless_channel,
)
from cstar_info.information import (
    Code,
    Source,
    aep_projection,
    aep_typical_set,
    entropy,
    huffman_code,
    kraft_check,
    kraft_construct,
)
from cstar_info.probability import (
    ProductState,
    State,
    annihilator_projection,
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
# drawn for every real and integer parameter besides its usual values: each
# call still ends in a result or one of the library's errors
_ODD = [math.nan, math.inf, -math.inf, -1, True, 2.5, "2"]
_FLOATS = st.one_of(st.sampled_from(_EXTREMES), st.floats(), st.sampled_from(_ODD))
# a real parameter whose default is not None draws None as well
_REALS = st.one_of(_FLOATS, st.none())


def _or_odd(*values):
    # the usual values of a parameter, the odd ones, and None
    return st.sampled_from(list(values) + _ODD + [None])


# guard limits that keep every fuzzed call small
_GUARDS = _or_odd(None, 4, 12)


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
@given(_vectors(), st.one_of(st.integers(1, 4), _or_odd()))
def test_fuzz_state(weights, dim):
    _state(weights)
    _outcome(lambda: State(AtomicAlgebra(dim), weights))


@settings(max_examples=300)
@given(_matrices(), _or_odd(None, 0, 1, 2, 3, 1e400))
def test_fuzz_channel_and_from_dict(matrix, dim):
    _outcome(lambda: Channel(matrix))
    data = {"input_dim": len(matrix) if dim is None else dim,
            "output_dim": len(matrix[0]) if isinstance(matrix[0], list) else 0,
            "matrix": matrix}
    _outcome(lambda: Channel.from_dict(data))


@settings(max_examples=150)
@given(_matrices(), _or_odd(1e-9, 1e-3, 0.0, "1e-9"), _or_odd(1, 30, 200, 0))
@example([[0.9, 0.1], [0.2, 0.8]], 1e-9, math.inf)
def test_fuzz_capacity(matrix, tol, max_iter):
    channel = _outcome(lambda: Channel(matrix))
    if channel is not None:
        _outcome(lambda: capacity(channel, tol, max_iter))


_HALF = State(A2, [0.5, 0.5])
_OBS = Element(A2, [0.0, 1.0])
_SOURCE = Source.from_weights([0.4, 0.3, 0.2, 0.1])
_GUARD_RULE = "guard_bits must be a finite real number, got "


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
    lambda: check_guard(2, 30, guard_bits="64"),
    lambda: check_guard(2, 30, guard_bits=True),
    lambda: annihilator_projection([_OBS], [True]),
    lambda: entropy(_HALF, "2"),
    lambda: entropy(_HALF, True),
    lambda: classify(useless_channel([0.5, 0.5]), rank_tol="1e-8"),
], ids=["capacity-bool", "capacity-str", "capacity-inf", "state-nan", "state-bool",
        "is_pure-nan", "channel-str", "merge_tol-nan", "eps-bool", "eps-str", "rate-nan",
        "guard-str", "guard-bool", "target-bool", "base-str", "base-bool", "rank_tol-str"])
def test_real_parameters_refuse_bools_strings_nan_and_inf(call):
    with pytest.raises(ValueError, match=" must be .+, got "):
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
    (lambda: check_guard(2, 30, guard_bits=math.nan), _GUARD_RULE + "nan"),
    # 2**40 strings, 16 TiB: refused before numpy is asked for them
    (lambda: tensor_power(Element(A2, [0.5, 0.5]), 40).dense(guard_bits=math.nan),
     _GUARD_RULE + "nan"),
    (lambda: aep_typical_set(_SOURCE, 100, 0.05, guard_bits=math.nan), _GUARD_RULE + "nan"),
    (lambda: lln_sweep(_HALF, [4], 2, 0.1, guard_bits=math.inf), _GUARD_RULE + "inf"),
    (lambda: coding_experiment(bsc(0.1), _HALF, 0.5, [4], guard_bits=math.nan),
     _GUARD_RULE + "nan"),
    (lambda: annihilator_projection([_OBS], [math.nan]), "target must be a finite real number, got nan"),
    (lambda: entropy(_HALF, math.inf), "entropy base must be finite and above 1, got inf"),
    (lambda: entropy(_HALF, 1), "entropy base must be finite and above 1, got 1.0"),
    (lambda: classify(useless_channel([0.5, 0.5]), rank_tol=math.nan),
     "rank_tol must be a finite real number >= 0, got nan"),
    (lambda: entropy(_HALF, None), "entropy base must be finite and above 1, got None"),
    (lambda: capacity(bsc(0.1), tol=None), "tol " + _TOL_RULE + "None"),
    (lambda: check_guard(2, 30, guard_bits=10 ** 400), _GUARD_RULE + "1" + "0" * 400),
    (lambda: coding_experiment(bsc(0.1), _HALF, 0.5, [4], seed=-1),
     "seed must be an integer >= 0, got -1"),
    (lambda: build_code_and_decoder(bsc(0.1), _HALF, 4, 0.5, seed=np.int64(-1)),
     "seed must be an integer >= 0, got -1"),
], ids=["bsc-bool", "bec-bool", "bsc-negative", "bec-nan", "equals-negative", "state-negative",
        "merge_tol-negative", "capacity-tol-negative", "capacity-tol-nan", "capacity-max_iter-0",
        "capacity-max_iter-negative", "eps-negative-zero", "aep-n-0", "projection-n-negative",
        "pushforward-n-0", "lln-n-0", "moment-n-0", "chebyshev-n-negative", "lln-k-0",
        "moment-sweep-k-negative", "guard-nan", "dense-guard-nan", "aep-guard-nan",
        "lln-guard-inf", "coding-guard-nan", "target-nan", "base-inf", "base-1", "rank_tol-nan",
        "base-none", "capacity-tol-none", "guard-beyond-float", "coding-seed-negative",
        "code-and-decoder-seed-negative"])
def test_real_parameters_refuse_values_outside_their_range(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


_X = Element(A2, [0.25, 0.75])
_DECISION_RULE = "decision must be an integer in [0, 2), got "
_X3 = tensor_power(Element(A2, [1.0, 2.0]), 3)


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
    (lambda: A2.atom(1.5), "atom index must be an integer, got 1.5"),
    (lambda: A2.atom(True), "atom index must be an integer, got True"),
    (lambda: A2.atom(2), "atom index must be below 2, got 2"),
    (lambda: MultiIndex({1.5: 1.9}), "tensor position must be an integer, got 1.5"),
    (lambda: MultiIndex({0: 1}), "tensor position must be an integer >= 1, got 0"),
    (lambda: MultiIndex({1: -1}), "atom index must be an integer >= 0, got -1"),
    (lambda: TensorElement.from_dict({"dim": 2, "terms": [{"idx": {"1.5": 0}, "c": [1.0, 0.0]}]}),
     "tensor position must be an integer, got '1.5'"),
    (lambda: _X3.dense(level=3.7), "level must be an integer, got 3.7"),
    (lambda: trace(_X3, level=3.7), "level must be an integer, got 3.7"),
    (lambda: truncate_to_level(_X3, -1), "level must be an integer >= 0, got -1"),
    (lambda: State.point_mass(AtomicAlgebra(3), -1), "atom index must be an integer >= 0, got -1"),
    (lambda: ProductState.iid(_HALF).state_at(2.5), "tensor position must be an integer, got 2.5"),
    (lambda: ProductState.iid(_HALF).state_at(0), "tensor position must be an integer >= 1, got 0"),
    (lambda: Channel.from_dict({"input_dim": 2.5, "output_dim": 2, "matrix": [[1, 0], [0, 1]]}),
     "input_dim must be an integer, got 2.5"),
    (lambda: Channel.from_dict({"input_dim": True, "output_dim": 1, "matrix": [[1.0]]}),
     "input_dim must be an integer, got True"),
    (lambda: A2.atom(None), "atom index must be an integer, got None"),
    (lambda: coding_experiment(bsc(0.1), _HALF, 0.5, [4], seed=None), "seed must be an integer, got None"),
    (lambda: MultiIndex({"1e3": 0}), "tensor position must be an integer, got '1e3'"),
    (lambda: TensorElement.from_dict({"dim": 2, "terms": [{"idx": {"1.0": 0}, "c": [1.0, 0.0]}]}),
     "tensor position must be an integer, got '1.0'"),
    (lambda: AtomicAlgebra(object), "algebra dimension must be an integer, got <class 'object'>"),
    (lambda: LosslessChannel(np.eye(2), [False, True]), _DECISION_RULE + "False"),
    (lambda: LosslessChannel(np.eye(2), [0.0, 1.0]), _DECISION_RULE + "0.0"),
    (lambda: LosslessChannel(np.eye(2), (0, "1")), _DECISION_RULE + "'1'"),
    (lambda: LosslessChannel(np.eye(2), [0, 2]), _DECISION_RULE + "2"),
    (lambda: LosslessChannel(np.eye(2), [-1, 0]), _DECISION_RULE + "-1"),
    (lambda: LosslessChannel(np.eye(2), [0, 2 ** 70]), _DECISION_RULE + str(2 ** 70)),
], ids=["algebra-dim-float", "algebra-dim-0", "from_dict-dim-float", "power-float", "power-0",
        "position-bool", "position-float", "position-0", "code-alphabet-float",
        "kraft-length-float", "kraft-alphabet-bool", "kraft-length-0", "construct-alphabet-float",
        "construct-length-inf", "huffman-alphabet-float", "atom-float", "atom-bool", "atom-2",
        "multiindex-position-float", "multiindex-position-0", "multiindex-atom-negative",
        "tensor-from_dict-position-str", "dense-level-float", "trace-level-float",
        "truncate-level-negative", "point_mass-negative", "state_at-float", "state_at-0",
        "channel-from_dict-dim-float", "channel-from_dict-dim-bool", "atom-none", "seed-none",
        "multiindex-position-exponent", "tensor-from_dict-position-decimal", "algebra-dim-object",
        "decision-bool", "decision-float", "decision-str", "decision-2", "decision-negative",
        "decision-beyond-int64"])
def test_counts_refuse_values_that_are_not_whole(call, message):
    # int() would truncate 2.5 and 2.7 to 2 and read True as 1
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@settings(max_examples=300)
@given(_vectors(), st.lists(st.one_of(st.integers(-1, 25), _or_odd()), min_size=1, max_size=3),
       _or_odd(1, 2, 3, 40, 0), _REALS, st.one_of(st.none(), _vectors()), _GUARDS)
def test_fuzz_lln_sweep(weights, ns, k, eps, values, guard_bits):
    omega = _state(weights)
    if omega is not None:
        observable = None if values is None else _outcome(lambda: Element(omega.algebra, values))
        _outcome(lambda: lln_sweep(omega, ns, k, eps, observable, guard_bits=guard_bits))


@settings(max_examples=300)
@given(_vectors(), st.one_of(st.integers(-1, 30), _or_odd(10 ** 8, 2 ** 64)), _REALS, _GUARDS)
def test_fuzz_aep_typical_set(weights, n, eps, guard_bits):
    omega = _state(weights)
    if omega is not None:
        _outcome(lambda: aep_typical_set(Source(omega.algebra, omega), n, eps, guard_bits))


@settings(max_examples=200)
@given(_vectors(), _or_odd(2, 3, 10, 1, 11))
def test_fuzz_huffman_code(weights, alphabet):
    omega = _state(weights)
    if omega is not None:
        _outcome(lambda: huffman_code(omega, alphabet))


@settings(max_examples=100)
@given(_matrices(), _vectors(), st.one_of(_REALS, st.floats(0.2, 1.5)),
       st.lists(_or_odd(1, 2, 3, 4, 0, 40), min_size=1, max_size=2),
       _or_odd(1, 2, 0), _or_odd(3, 0), _GUARDS)
@example([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5], 0.4, [4], math.inf, 3, None)
@example([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5], 0.4, [math.inf], 1, 3, None)
def test_fuzz_coding_experiment(matrix, weights, rate, ks, trials, seed, guard_bits):
    channel = _outcome(lambda: Channel(matrix))
    omega = _state(weights)
    if channel is not None and omega is not None:
        _outcome(lambda: coding_experiment(channel, omega, rate, ks, trials=trials, seed=seed,
                                           guard_bits=guard_bits))


# lint ---------------------------------------------------------------------------------

# the two readers, and the CLI's readers of flag and CSV text
_TEXT_READERS = {"_integer", "_real", "_parse_int", "_parse_float", "_csv_cell", "_csv_value"}


def _is_reader(func):
    # int, float or operator.index, which reads a bool as 0 or 1
    if isinstance(func, ast.Name):
        return func.id in ("int", "float")
    return isinstance(func, ast.Attribute) and func.attr == "index" and \
        isinstance(func.value, ast.Name) and func.value.id == "operator"


def _bare_reads(tree):
    """``(function, line)`` of each ``int(p)``, ``float(p)`` or
    ``operator.index(p)`` where p is a parameter of the enclosing function,
    or a name a loop or comprehension takes from one."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name in _TEXT_READERS:
            continue
        args = fn.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.comprehension)) and \
                    isinstance(node.iter, ast.Name) and node.iter.id in names:
                names.update(n.id for n in ast.walk(node.target) if isinstance(n, ast.Name))
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _is_reader(node.func) and len(node.args) == 1 and \
                    isinstance(node.args[0], ast.Name) and node.args[0].id in names:
                yield fn.name, node.lineno


def test_bare_reads_are_found():
    source = """
def f(a, *rest, b=1):
    return int(a), float(b), [int(r) for r in rest], int(len(rest))
def g(items):
    for x in items:
        float(x)
def _real(value):
    return float(value)
def h(i, j):
    return operator.index(i), [operator.index(d) for d in j], str.index(j), index(i)
"""
    assert list(_bare_reads(ast.parse(source))) == [("f", 3), ("f", 3), ("f", 3), ("g", 6),
                                                    ("h", 10), ("h", 10)]


def test_parameters_are_read_through_integer_and_real():
    # a bare int() truncates 2.5 and reads True as 1, a bare
    # operator.index() reads True as 1 too, and a bare float() lets NaN, inf
    # and True through: every number a caller passes goes through
    # algebra._integer or algebra._real
    found = ["%s:%d in %s()" % (path.name, line, name)
             for path in sorted(pathlib.Path(cstar_info.__file__).parent.glob("*.py"))
             for name, line in _bare_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


# the block format of TensorElement, which only algebra builds and reads
_BLOCK_INTERNALS = {"_one_hot_rows", "_tensor_element", "_blocks", "_scalar", "_cache"}


def _internal_names(tree):
    """``(name, line)`` of each name, attribute or import of a block internal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in _BLOCK_INTERNALS:
            yield name, node.lineno


def test_internal_names_are_found():
    source = """
from .algebra import _one_hot_rows, _tensor_element as build
x._blocks, y._cache.get("level")
_scalar = _call_scalar
"""
    assert list(_internal_names(ast.parse(source))) == [
        ("_one_hot_rows", 2), ("_tensor_element", 2), ("_scalar", 4), ("_blocks", 3), ("_cache", 3)]


def test_block_internals_are_named_only_in_algebra():
    # other modules build tensor elements through algebra's public API and
    # _from_strings, so the block format is known in one module
    found = ["%s:%d %s" % (path.name, line, name)
             for path in sorted(pathlib.Path(cstar_info.__file__).parent.glob("*.py"))
             if path.name != "algebra.py"
             for name, line in _internal_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
