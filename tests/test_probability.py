"""Unit tests for states, subalgebras, independence, and the weak law."""

import itertools
import json
import math
import pathlib
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstar_info.algebra import (
    EQ_TOL,
    AlgebraMismatch,
    AtomicAlgebra,
    Element,
    GuardExceeded,
    embed_at,
    tensor_product,
)
from cstar_info.probability import (
    Distribution,
    ProductState,
    State,
    Subalgebra,
    annihilator_projection,
    chebyshev_tail,
    distribution_of,
    evaluate,
    generated_subalgebra,
    independence_test,
    lln_moment,
    lln_moment_sweep,
    lln_sweep,
    prob_interval,
    pure_check,
    sum_pushforward,
)

RNG = np.random.default_rng(7321)


def random_state(algebra, rng=RNG):
    w = rng.uniform(0.0, 1.0, algebra.dim)
    return State(algebra, w / w.sum())


# states ----------------------------------------------------------------------


def test_state_validation():
    alg = AtomicAlgebra(3)
    with pytest.raises(ValueError):
        State(alg, [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        State(alg, [1.2, -0.2, 0.0])
    with pytest.raises(ValueError):
        State(alg, [0.5, 0.5])
    s = State(alg, [0.2, 0.3, 0.5])
    assert s(alg.identity()) == pytest.approx(1.0)


def test_state_rejects_non_finite():
    alg = AtomicAlgebra(2)
    for bad in ([float("nan"), float("nan")], [float("inf"), -float("inf")], [0.5, float("inf")]):
        with pytest.raises(ValueError, match="finite"):
            State(alg, bad)


@pytest.mark.parametrize("weights, message", [
    ([float("inf"), -float("inf")], "finite"),
    ([1e308, 1e308], "sum to 1"),
    ([1e400, 0.0], "finite"),
])
def test_state_refuses_without_a_numpy_warning(weights, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            State(AtomicAlgebra(2), weights)


def test_product_state_takes_its_last_factor_as_the_tail():
    alg = AtomicAlgebra(2)
    s, t = State(alg, [0.5, 0.5]), State(alg, [0.1, 0.9])
    omega = ProductState((s, t))
    assert omega.tail is t
    assert [omega.state_at(p) for p in (1, 2, 3, 9)] == [s, t, t, t]
    assert omega(tensor_product(alg.atom(1), alg.atom(1))) == pytest.approx(0.45)


def test_product_state_compares_factor_algebras_by_value():
    # a factor on an equal but distinct algebra object shares the tail's
    # algebra; one on another algebra does not
    tail = State(AtomicAlgebra(2), [0.5, 0.5])
    twin = State(AtomicAlgebra(2), [0.1, 0.9])
    assert twin.algebra is not tail.algebra
    assert ProductState((twin,), tail).state_at(1) is twin
    with pytest.raises(AlgebraMismatch, match="all factors must share one algebra"):
        ProductState((State.uniform(AtomicAlgebra(3)),), tail)


_S2 = State(AtomicAlgebra(2), [0.5, 0.5])
_S3 = State.uniform(AtomicAlgebra(3))
_OBS2 = Element(AtomicAlgebra(2), [0.0, 1.0])
_OBS3 = Element(AtomicAlgebra(3), [0.0, 1.0, 2.0])


@pytest.mark.parametrize("call, error, message", [
    (lambda: ProductState(), ValueError, "need a tail state or at least one factor"),
    (lambda: ProductState((), [0.5, 0.5]), TypeError, "tail must be a State"),
    (lambda: ProductState(([0.5, 0.5],), _S2), TypeError, "factors must be States"),
    (lambda: ProductState((_S3,), _S2), AlgebraMismatch, "all factors must share one algebra"),
    (lambda: distribution_of([], _S2), ValueError, "need at least one observable"),
    (lambda: distribution_of([_OBS3], _S2), AlgebraMismatch, "observable and state algebras differ"),
    (lambda: distribution_of([_OBS2 * 1j], _S2), ValueError, "observables must be self-adjoint"),
    (lambda: annihilator_projection([_OBS2], [0.0, 1.0]), ValueError,
     "need one target per observable"),
    (lambda: annihilator_projection([], []), ValueError, "need at least one observable"),
    (lambda: annihilator_projection([_OBS2, _OBS3], [0.0, 0.0]), AlgebraMismatch,
     "observables live on different algebras"),
    (lambda: annihilator_projection([_OBS2 * 1j], [0.0]), ValueError,
     "observables must be self-adjoint"),
    (lambda: ProductState.iid(_S2)(embed_at(_OBS3, 1)), AlgebraMismatch,
     "element factor algebra AtomicAlgebra(3), state algebra AtomicAlgebra(2)"),
    (lambda: lln_sweep(_S2, [2], 2, 0.1, _OBS3), AlgebraMismatch,
     "observable and state algebras differ"),
    (lambda: lln_sweep(_S2, [2], 2, 0.1, _OBS2 * 1j), ValueError,
     "observable must be self-adjoint"),
    (lambda: lln_sweep(_S2, [2], 2, 0.1, Element(AtomicAlgebra(2), [0.0, math.inf])), ValueError,
     "observable values must be finite"),
    (lambda: prob_interval(_OBS3, _S2, 0.0, 1.0), AlgebraMismatch,
     "element and state algebras differ"),
    (lambda: Distribution(((0.0, 1.5), (1.0, -0.5))), ValueError,
     "distribution masses must be nonnegative"),
    (lambda: Subalgebra(AtomicAlgebra(3), ((0, 1), (1, 2))), ValueError,
     "blocks must partition the atom set"),
    (lambda: Subalgebra(AtomicAlgebra(3), ((0,), (1,))), ValueError,
     "blocks must partition the atom set"),
], ids=["product-empty", "product-tail", "product-factor", "product-algebras",
        "distribution-empty", "distribution-algebras", "distribution-not-self-adjoint",
        "annihilator-targets", "annihilator-empty", "annihilator-algebras",
        "annihilator-not-self-adjoint", "product-state-algebra", "lln-observable-algebra",
        "lln-observable-not-self-adjoint", "lln-observable-not-finite", "interval-algebras",
        "distribution-negative", "subalgebra-overlap", "subalgebra-missing"])
def test_probability_constructors_refuse_bad_input(call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()


def test_state_evaluation_linear():
    alg = AtomicAlgebra(4)
    omega = random_state(alg)
    x = Element(alg, RNG.uniform(-2, 2, 4) + 1j * RNG.uniform(-2, 2, 4))
    y = Element(alg, RNG.uniform(-2, 2, 4))
    assert evaluate(omega, x + y) == pytest.approx(omega(x) + omega(y))
    assert omega(2.5 * x) == pytest.approx(2.5 * omega(x))
    # positivity: omega(x* x) >= 0
    assert (omega(x.star() * x)).real >= 0.0
    assert abs(omega(x.star() * x).imag) <= 1e-12


def test_pure_iff_multiplicative():
    alg = AtomicAlgebra(3)
    pure = State.point_mass(alg, 1)
    assert pure_check(pure)
    mixed = State(alg, [0.4, 0.6, 0.0])
    assert not pure_check(mixed)
    # multiplicativity holds exactly for the point mass and fails for mixed
    for _ in range(50):
        x = Element(alg, RNG.uniform(-2, 2, 3))
        y = Element(alg, RNG.uniform(-2, 2, 3))
        assert pure(x * y) == pytest.approx(pure(x) * pure(y))
    x = alg.atom(0)
    assert mixed(x * x) != pytest.approx(mixed(x) * mixed(x))


def test_state_serialization():
    alg = AtomicAlgebra(2)
    s = State(alg, [0.25, 0.75])
    data = json.loads(json.dumps(s.to_dict()))
    assert data == {"dim": 2, "weights": [0.25, 0.75]}
    assert State.from_dict(data) == s


def test_product_state_evaluation():
    alg = AtomicAlgebra(2)
    w1 = State(alg, [0.3, 0.7])
    w2 = State(alg, [0.9, 0.1])
    ps = ProductState((w1, w2), tail=State.uniform(alg))
    t = tensor_product(alg.atom(0), alg.atom(1))
    assert ps(t) == pytest.approx(0.3 * 0.1)
    # implicit identity tail contributes factor 1
    assert ps(embed_at(alg.atom(0), 1)) == pytest.approx(0.3)
    # beyond the explicit factors the tail state applies
    assert ps(embed_at(alg.atom(0), 5)) == pytest.approx(0.5)
    iid = ProductState.iid(w1)
    assert iid(embed_at(alg.atom(1), 9)) == pytest.approx(0.7)


def test_evaluate_dispatch_strict():
    alg = AtomicAlgebra(2)
    s = State.uniform(alg)
    with pytest.raises(TypeError):
        s(embed_at(alg.atom(0), 1))
    with pytest.raises(TypeError):
        ProductState.iid(s)(alg.atom(0))
    with pytest.raises(AlgebraMismatch):
        s(AtomicAlgebra(3).identity())


# generated subalgebras -------------------------------------------------------


def test_generated_subalgebra_blocks():
    alg = AtomicAlgebra(3)
    x = Element(alg, [2.0, 3.0, 3.0])
    sub = generated_subalgebra([x])
    assert sub.blocks == ((0,), (1, 2))
    assert sub.dim == 2
    projs = sub.block_projections()
    assert projs[0].equals(alg.atom(0))
    assert projs[1].equals(alg.atom(1) + alg.atom(2))
    assert sub.contains(x)
    assert not sub.contains(alg.atom(1))


def test_generated_subalgebra_empty_and_full():
    alg = AtomicAlgebra(4)
    scalars = generated_subalgebra([], algebra=alg)
    assert scalars.blocks == ((0, 1, 2, 3),)
    with pytest.raises(ValueError):
        generated_subalgebra([])
    injective = Element(alg, [0.0, 1.0, 2.0, 3.0])
    assert generated_subalgebra([injective]).dim == 4
    # two generators refine each other's partitions
    a = Element(alg, [0.0, 0.0, 1.0, 1.0])
    b = Element(alg, [0.0, 1.0, 0.0, 1.0])
    assert generated_subalgebra([a, b]).dim == 4


def test_generated_subalgebra_tolerance_merge():
    alg = AtomicAlgebra(2)
    x = Element(alg, [1.0, 1.0 + 1e-12])
    assert generated_subalgebra([x]).dim == 1
    y = Element(alg, [1.0, 1.0 + 1e-6])
    assert generated_subalgebra([y]).dim == 2
    with pytest.raises(ValueError):
        generated_subalgebra([Element(alg, [1j, 0.0])])


# independence ----------------------------------------------------------------


def _pair_marginals(weights, rows, cols):
    w = np.asarray(weights).reshape(rows, cols)
    return w.sum(axis=1), w.sum(axis=0)


def _factor_generators(alg, rows, cols):
    row_gen = Element(alg, np.repeat(np.arange(rows, dtype=float), cols))
    col_gen = Element(alg, np.tile(np.arange(cols, dtype=float), rows))
    return row_gen, col_gen


def test_independence_product_state():
    rows, cols = 2, 3
    alg = AtomicAlgebra(rows * cols)
    row_gen, col_gen = _factor_generators(alg, rows, cols)
    pr = RNG.uniform(0.1, 1.0, rows)
    pc = RNG.uniform(0.1, 1.0, cols)
    pr, pc = pr / pr.sum(), pc / pc.sum()
    omega = State(alg, np.outer(pr, pc).ravel())
    flag, witness = independence_test([row_gen], [col_gen], omega)
    assert flag and witness is None


def test_independence_correlated_state():
    alg = AtomicAlgebra(4)
    row_gen, col_gen = _factor_generators(alg, 2, 2)
    omega = State(alg, [0.5, 0.0, 0.0, 0.5])  # perfectly correlated bits
    flag, witness = independence_test([row_gen], [col_gen], omega)
    assert not flag
    p, q = witness
    assert abs(omega(p * q) - omega(p) * omega(q)) > 1e-9


def test_independence_matches_factorization_oracle():
    rows, cols = 2, 3
    alg = AtomicAlgebra(rows * cols)
    row_gen, col_gen = _factor_generators(alg, rows, cols)
    for _ in range(200):
        w = RNG.uniform(0.0, 1.0, rows * cols)
        w = w / w.sum()
        omega = State(alg, w)
        got, _ = independence_test([row_gen], [col_gen], omega)
        mr, mc = _pair_marginals(w, rows, cols)
        expected = bool(np.max(np.abs(np.outer(mr, mc).ravel() - w)) <= 1e-9)
        assert got == expected


def test_independence_against_scalars():
    # the scalar subalgebra is independent of everything
    alg = AtomicAlgebra(4)
    omega = random_state(alg)
    gen = Element(alg, [0.0, 1.0, 2.0, 3.0])
    flag, _ = independence_test([], [gen], omega)
    assert flag


# A coefficient grid with chains spaced 0.4 EQ_TOL: three steps stay one
# cluster though their ends lie 1.2 EQ_TOL apart.
_CHAINED = [v + k * 0.4 * EQ_TOL for v in (-0.5, 0.0, 1.0) for k in range(4)]


@st.composite
def _partition_cases(draw):
    d = draw(st.integers(1, 8))
    alg = AtomicAlgebra(d)

    def generators(least):
        count = draw(st.integers(least, 3))
        return [Element(alg, draw(st.lists(st.sampled_from(_CHAINED), min_size=d, max_size=d)))
                for _ in range(count)]

    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0]),
                                     min_size=d, max_size=d)))
    if not weights.any():
        weights[draw(st.integers(0, d - 1))] = 1.0
    return generators(1), generators(0), State(alg, weights / weights.sum())


@st.composite
def _near_product_cases(draw):
    # A product state on a rows x cols grid of atoms with a few EQ_TOL of
    # mass moved between two atoms, against the row and column generators:
    # joint tables on both sides of the tolerance.  The moved masses have
    # prime factors no grid sum has, so no table deviation lands within
    # rounding of the tolerance.
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    grid = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    weights = np.outer(draw(st.lists(grid, min_size=rows, max_size=rows)),
                       draw(st.lists(grid, min_size=cols, max_size=cols))).ravel()
    if not weights.any():
        weights[draw(st.integers(0, rows * cols - 1))] = 1.0
    weights /= weights.sum()
    moved = draw(st.sampled_from([0.0, 0.53, 1.7, 3.7])) * EQ_TOL
    weights[draw(st.sampled_from(np.flatnonzero(weights).tolist()))] -= moved
    weights[draw(st.integers(0, rows * cols - 1))] += moved
    alg = AtomicAlgebra(rows * cols)
    row_gen, col_gen = _factor_generators(alg, rows, cols)
    return [row_gen], [col_gen], State(alg, weights)


def _blocks_by_atoms(gens, d, tol=EQ_TOL):
    # two atoms share a block when every generator links them by a chain of
    # steps of at most tol: a union-find over every pair of atoms
    key = [()] * d
    for g in gens:
        values = g.coeffs.real
        root = list(range(d))

        def find(i):
            while root[i] != i:
                i = root[i]
            return i

        for i in range(d):
            for j in range(d):
                if abs(values[i] - values[j]) <= tol:
                    root[find(i)] = find(j)
        key = [key[i] + (find(i),) for i in range(d)]
    blocks = {}
    for i in range(d):
        blocks.setdefault(key[i], []).append(i)
    return sorted(tuple(b) for b in blocks.values())


def _independent_by_atoms(blocks_a, blocks_b, weights, tol=EQ_TOL):
    for p in blocks_a:
        for q in blocks_b:
            both = sum(weights[i] for i in p if i in q)
            if abs(both - sum(weights[i] for i in p) * sum(weights[i] for i in q)) > tol:
                return False
    return True


@settings(max_examples=150)
@given(st.one_of(_partition_cases(), _near_product_cases()))
def test_one_partition_behind_subalgebra_distribution_and_independence(case):
    gens, others, omega = case
    d = omega.algebra.dim
    sub = generated_subalgebra(gens)
    assert list(sub.blocks) == _blocks_by_atoms(gens, d)
    assert sub.dim == len(distribution_of(gens, omega).atoms)
    for g in gens:
        values = np.sort(g.coeffs.real)
        for block in sub.blocks:
            # constant within tol: a chain of steps of at most tol, through
            # the generator's values on any atoms, spans the block's values
            on_block = g.coeffs.real[list(block)]
            chain = values[(values >= on_block.min()) & (values <= on_block.max())]
            assert np.all(np.diff(chain) <= EQ_TOL)
    flag, witness = independence_test(gens, others, omega)
    blocks_b = _blocks_by_atoms(others, d)
    assert flag == _independent_by_atoms(sub.blocks, blocks_b, omega.weights)
    if witness is not None:
        p, q = witness
        assert abs(omega(p * q) - omega(p) * omega(q)) > EQ_TOL


PARTITIONS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "library" / "partitions.json"


def _partition_golden_cases():
    # Seeded cases of the two kinds above: one to eight atoms, one to three
    # generators and up to three others on the chained grid, weights from
    # {0, 1, 2, 3}; and every fourth case a product state on a grid of up to
    # 4 x 2 atoms with a few EQ_TOL of mass moved, against its row and
    # column generators.
    rng = np.random.default_rng(2025)
    for case in range(120):
        if case % 4 == 3:
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            weights = np.outer(rng.choice(4, rows), rng.choice(4, cols)).ravel().astype(float)
            if not weights.any():
                weights[rng.integers(rows * cols)] = 1.0
            weights /= weights.sum()
            moved = float(rng.choice([0.0, 0.53, 1.7, 3.7])) * EQ_TOL
            weights[rng.choice(np.flatnonzero(weights))] -= moved
            weights[rng.integers(rows * cols)] += moved
            alg = AtomicAlgebra(rows * cols)
            row_gen, col_gen = _factor_generators(alg, rows, cols)
            yield [row_gen], [col_gen], State(alg, weights)
            continue
        d = int(rng.integers(1, 9))
        alg = AtomicAlgebra(d)
        gens, others = ([Element(alg, rng.choice(_CHAINED, d)) for _ in range(rng.integers(least, 4))]
                        for least in (1, 0))
        weights = rng.choice([0.0, 0.0, 1.0, 2.0, 3.0], d)
        if not weights.any():
            weights[rng.integers(d)] = 1.0
        yield gens, others, State(alg, weights / weights.sum())


def partitions_golden_records():
    """Each case's blocks of ``generated_subalgebra``, atoms of
    ``distribution_of`` (values and masses as ``float.hex``), and the flag
    of ``independence_test`` with the atoms of its witness blocks, if any."""
    records = []
    for gens, others, omega in _partition_golden_cases():
        atoms = [[[float.hex(x) for x in np.atleast_1d(value)], float.hex(mass)]
                 for value, mass in distribution_of(gens, omega).atoms]
        flag, witness = independence_test(gens, others, omega)
        blocks = None if witness is None else [np.flatnonzero(p.coeffs).tolist() for p in witness]
        records.append([[list(b) for b in generated_subalgebra(gens).blocks], atoms, flag, blocks])
    return records


def test_partitions_match_the_library_golden_file():
    assert partitions_golden_records() == json.loads(
        PARTITIONS_GOLDEN.read_text(encoding="utf-8"))


_A4 = AtomicAlgebra(4)


@settings(max_examples=150)
@given(_partition_cases())
# one block whose values chain over 1.2 EQ_TOL
@example(([Element(_A4, [0, 4e-10, 8e-10, 1.2e-9])], [], State(_A4, [0.25] * 4)))
def test_a_generated_subalgebra_contains_its_generators(case):
    gens, others, _ = case
    alg = gens[0].algebra
    sub = generated_subalgebra(gens + others)
    for g in gens + others:
        assert sub.contains(g)
        assert sub.contains(Element(alg, 1j * g.coeffs))
    for p in sub.block_projections():
        assert sub.contains(p)
    for i in range(alg.dim):
        assert sub.contains(alg.atom(i)) == ((i,) in sub.blocks)


# distributions ---------------------------------------------------------------


def test_distribution_of_single_observable():
    alg = AtomicAlgebra(3)
    x = Element(alg, [2.0, 3.0, 3.0])
    omega = State(alg, [0.2, 0.3, 0.5])
    dist = distribution_of([x], omega)
    assert dist.atoms == ((2.0, pytest.approx(0.2)), (3.0, pytest.approx(0.8)))
    assert dist.total() == pytest.approx(1.0)
    assert dist.cdf(2.0) == pytest.approx(0.2)
    assert dist.cdf(2.5) == pytest.approx(0.2)
    assert dist.cdf(3.0) == pytest.approx(1.0)
    assert dist.cdf(-1.0) == 0.0


def test_distribution_joint():
    alg = AtomicAlgebra(4)
    a = Element(alg, [0.0, 0.0, 1.0, 1.0])
    b = Element(alg, [0.0, 1.0, 0.0, 1.0])
    omega = State(alg, [0.1, 0.2, 0.3, 0.4])
    dist = distribution_of([a, b], omega)
    assert dist.masses() == {
        (0.0, 0.0): pytest.approx(0.1),
        (0.0, 1.0): pytest.approx(0.2),
        (1.0, 0.0): pytest.approx(0.3),
        (1.0, 1.0): pytest.approx(0.4),
    }
    assert dist.cdf((0.0, 1.0)) == pytest.approx(0.3)
    assert dist.cdf((1.0, 1.0)) == pytest.approx(1.0)


def test_distribution_serialization_roundtrip():
    alg = AtomicAlgebra(3)
    x = Element(alg, [1.0, 2.0, 2.0])
    dist = distribution_of([x], State(alg, [0.5, 0.25, 0.25]))
    data = json.loads(json.dumps(dist.to_dict()))
    assert data == {"atoms": [{"t": 1.0, "p": 0.5}, {"t": 2.0, "p": 0.5}]}
    assert Distribution.from_dict(data).atoms == dist.atoms


def test_annihilator_projection():
    alg = AtomicAlgebra(4)
    a = Element(alg, [0.0, 0.0, 1.0, 1.0])
    b = Element(alg, [5.0, 7.0, 5.0, 7.0])
    j = annihilator_projection([a, b], [1.0, 7.0])
    assert j.equals(alg.atom(3))
    assert j.is_projection()
    # the defining annihilation property: j * (t - g) = 0 for each generator
    for g, t in ((a, 1.0), (b, 7.0)):
        assert (j * (t * alg.identity() - g)).norm() <= 1e-12
    omega = State(alg, [0.1, 0.2, 0.3, 0.4])
    assert omega(j).real == pytest.approx(0.4)
    # matches the joint distribution mass at the target point
    dist = distribution_of([a, b], omega)
    assert dist.masses()[(1.0, 7.0)] == pytest.approx(0.4)


def test_prob_interval():
    alg = AtomicAlgebra(4)
    x = Element(alg, [0.0, 1.0, 2.0, 3.0])
    omega = State(alg, [0.1, 0.2, 0.3, 0.4])
    assert prob_interval(x, omega, 1.0, 2.0) == pytest.approx(0.5)
    assert prob_interval(x, omega, -10.0, 10.0) == pytest.approx(1.0)
    assert prob_interval(x, omega, 2.5, 2.6) == 0.0
    with pytest.raises(ValueError):
        prob_interval(Element(alg, [1j, 0, 0, 0]), omega, 0, 1)


# weak law of large numbers ----------------------------------------------------


def brute_average_moment(weights, values, n, k):
    """Dense oracle: enumerate all d**n outcome strings."""
    mean = float(np.dot(weights, values))
    total = 0.0
    for string in itertools.product(range(len(values)), repeat=n):
        p = math.prod(weights[i] for i in string)
        avg = sum(values[i] for i in string) / n
        total += p * abs(avg - mean) ** k
    return total


def test_sum_pushforward_against_enumeration():
    values = np.array([0.0, 1.0, 3.0])
    masses = np.array([0.5, 0.2, 0.3])
    v, m = sum_pushforward(values, masses, 4)
    assert m.sum() == pytest.approx(1.0)
    acc = {}
    for string in itertools.product(range(3), repeat=4):
        total = sum(values[i] for i in string)
        acc[total] = acc.get(total, 0.0) + math.prod(masses[i] for i in string)
    assert len(acc) == len(v)
    for vi, mi in zip(v, m):
        assert mi == pytest.approx(acc[round(float(vi), 9)], abs=1e-12)


def test_lln_point_mass_far_from_zero_has_no_deviation():
    # the sweep convolves centred values, so a point mass has every figure 0
    # however large its value (its raw sums would leave rounding residues)
    omega = State(AtomicAlgebra(1), [1.0])
    obs = Element(omega.algebra, [1e300])
    assert lln_moment_sweep(omega, [1, 10], 2, observable=obs) == {1: 0.0, 10: 0.0}
    assert chebyshev_tail(omega, 10, 1e-300, observable=obs) == 0.0
    v, m = sum_pushforward([1e300], [1.0], 10)
    assert v.tolist() == [1e301] and m.tolist() == [1.0]
    # the raw sums it returns must still fit in a float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in ([1e308], [1e308, 0.5e308]):
            with pytest.raises(ValueError, match="2 copies span beyond the float range"):
                sum_pushforward(values, [1.0 / len(values)] * len(values), 2)


def test_lln_moment_matches_dense_oracle():
    alg = AtomicAlgebra(2)
    for p in (0.1, 0.5):
        omega = State(alg, [1.0 - p, p])
        for n in (1, 3, 6):
            for k in (2, 4):
                got = lln_moment(omega, n, k)
                want = brute_average_moment(omega.weights, [0.0, 1.0], n, k)
                assert got == pytest.approx(want, abs=1e-12)


def test_lln_variance_analytic():
    alg = AtomicAlgebra(2)
    p = 0.3
    omega = State(alg, [1.0 - p, p])
    for n in (1, 10, 100, 1000):
        assert lln_moment(omega, n, 2) == pytest.approx(p * (1 - p) / n, abs=1e-12)


def test_lln_moment_sweep_consistent():
    alg = AtomicAlgebra(3)
    omega = State(alg, [0.2, 0.5, 0.3])
    x = Element(alg, [-1.0, 0.0, 2.0])
    ns = [1, 2, 5, 9]
    swept = lln_moment_sweep(omega, ns, 2, observable=x)
    for n in ns:
        assert swept[n] == pytest.approx(lln_moment(omega, n, 2, observable=x), abs=1e-14)


def test_lln_moment_validation():
    alg = AtomicAlgebra(2)
    omega = State(alg, [0.5, 0.5])
    with pytest.raises(ValueError):
        lln_moment(omega, 0, 2)
    with pytest.raises(ValueError):
        lln_moment(omega, 5, 0)
    with pytest.warns(UserWarning):
        lln_moment(omega, 5, 3)


def test_chebyshev_tail_bounded():
    alg = AtomicAlgebra(2)
    p = 0.3
    omega = State(alg, [1.0 - p, p])
    eps = 0.1
    for n in (10, 50, 200):
        tail = chebyshev_tail(omega, n, eps)
        bound = p * (1 - p) / (n * eps * eps)
        assert 0.0 <= tail <= min(1.0, bound) + 1e-12
    with pytest.raises(ValueError):
        chebyshev_tail(omega, 10, 0.0)


def test_chebyshev_tail_exact_small_case():
    # n=2 fair coin, eps=0.4: average in {0, .5, 1}, mean .5; tail mass = P(0)+P(1)
    alg = AtomicAlgebra(2)
    omega = State(alg, [0.5, 0.5])
    assert chebyshev_tail(omega, 2, 0.4) == pytest.approx(0.5)
    # eps above the max deviation leaves no tail
    assert chebyshev_tail(omega, 2, 0.6) == 0.0


def test_sum_pushforward_returns_exact_lattice_sums():
    # integer values in progression give the sums n * v0 + g * k themselves,
    # not centred float sums with the mean added back
    v, m = sum_pushforward([0, 1, 2], [0.2, 0.3, 0.5], 40)
    assert v.tolist() == list(range(81))
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    v, _ = sum_pushforward([-3, 1, 1, 5], [0.25, 0.25, 0.25, 0.25], 7)
    assert v.tolist() == list(range(-21, 36, 4))


def test_boundary_tails_follow_the_exact_verdict():
    # at eps = 0.3 some averages lie on mean +- eps; the exact rational
    # comparison keeps them out of the tail, where a float test of
    # |k / n - mean| > eps would take them in (0.57725 at n = 5)
    omega = State(AtomicAlgebra(3), [0.2, 0.3, 0.5])
    table = lln_sweep(omega, [5, 10, 15], 2, 0.3)
    tails = {5: 0.40225, 10: 0.2301331225, 15: 0.139776118040575}
    for n, tail in tails.items():
        assert table[n][2] == pytest.approx(tail, rel=1e-12)
        assert chebyshev_tail(omega, n, 0.3) == table[n][2]


def _exact_law(values, weights, n):
    """The exact law of the sum of n iid draws under the float weights, as
    ``({sum: c}, d)``: the sum has mass ``c / d``."""
    den = max(Fraction(w).denominator for w in weights)  # powers of two
    nums = [int(Fraction(w) * den) for w in weights]
    law = {Fraction(0): 1}
    for _ in range(n):
        nxt = {}
        for total, c in law.items():
            for v, w in zip(values, nums):
                if w:
                    nxt[total + v] = nxt.get(total + v, 0) + c * w
        law = nxt
    return law, den ** n


@st.composite
def _sweep_cases(draw):
    # Weights in tenths, zeros among them.  A progression v0, v0 + g, ...
    # covers every step up to its size, with repeats; the two value sets
    # that are no progression stay on the sort-and-merge, whose tails are
    # float verdicts.
    dim = draw(st.integers(2, 4))
    lattice = draw(st.booleans())
    if lattice:
        size = draw(st.integers(1, dim))
        steps = list(range(size)) + draw(st.lists(st.integers(0, size - 1),
                                                  min_size=dim - size, max_size=dim - size))
        v0, g = draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2]))
        values = [float(v0 + g * i) for i in draw(st.permutations(steps))]
    else:
        values = draw(st.sampled_from([[0.0, 1.0, 3.0], [0.0, 2.5, -1.0]]))
        dim = 3
    cuts = sorted(draw(st.lists(st.integers(0, 10), min_size=dim - 1, max_size=dim - 1)))
    weights = [(b - a) / 10 for a, b in zip([0] + cuts, cuts + [10])]
    ns = sorted(set(draw(st.lists(st.integers(1, 25), min_size=1, max_size=3))))
    # eps on a lattice boundary: the distance of one average from the mean
    n = draw(st.sampled_from(ns))
    picks = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    deviation = abs(sum(map(Fraction, picks)) / n - Fraction(float(np.dot(values, weights))))
    eps = float(deviation) if deviation else 0.5
    return values, weights, ns, draw(st.integers(1, 4)), eps, lattice


@settings(max_examples=60, deadline=None)
@given(_sweep_cases())
def test_sweeps_match_an_exact_multinomial_oracle(case):
    values, weights, ns, k, eps, lattice = case
    omega = State(AtomicAlgebra(len(values)), weights)
    table = lln_sweep(omega, ns, k, eps, observable=Element(omega.algebra, values))
    exact_values = [Fraction(v) for v in values]
    # the sweep centres on the float mean; the tail verdict compares with it
    mean = Fraction(float(np.dot(values, omega.weights)))
    for n in ns:
        law, den = _exact_law(exact_values, omega.weights, n)
        sums, masses = sum_pushforward(values, omega.weights, n)
        assert math.isclose(masses.sum(), 1.0, abs_tol=1e-12)
        deviations = {s: abs(s / n - mean) for s in law}
        for order, got in ((k, table[n][0]), (2, table[n][1])):
            want = sum(c * deviations[s] ** order for s, c in law.items()) / den
            assert math.isclose(got, want, rel_tol=1e-12)
        if lattice:
            # the lattice's sums are exact, so each carries its exact mass
            for s, m in zip(sums.tolist(), masses.tolist()):
                assert math.isclose(m, law.get(Fraction(s), 0) / den, rel_tol=1e-12)
            tail = sum(c for s, c in law.items() if deviations[s] > Fraction(eps)) / den
            assert math.isclose(table[n][2], tail, rel_tol=1e-12)


def test_lattice_sweeps_are_charged_as_the_sort_and_merge():
    # (0, 1, 1) runs on the lattice and (0, 0.5, 0.5) on the sort-and-merge;
    # both have n + 1 support points at n and three atoms, so the guard
    # charges them alike and refuses at the same n with the same text
    omega = State(AtomicAlgebra(3), [0.2, 0.3, 0.5])
    lattice, merged = (Element(omega.algebra, v) for v in ([0.0, 1.0, 1.0], [0.0, 0.5, 0.5]))
    refusals = []
    for ns, bits in [([5, 40], 8), ([5, 40], 9.5), (range(1, 61), 10), (range(1, 61), 12)]:
        texts = []
        for obs in (lattice, merged):
            with pytest.raises(GuardExceeded) as exc:
                lln_sweep(omega, ns, 2, 0.1, observable=obs, guard_bits=bits)
            texts.append(str(exc.value))
        assert texts[0] == texts[1]
        refusals.append(texts[0])
    # three products per support point: 3 (1 + ... + 5) by n = 5, then at
    # least 6 * 3 for each of the 35 steps left
    assert refusals[0] == ("needs ~2^%.5g support-by-value products at least, to sweep to "
                           "n = 40; guard is 2^8" % math.log2(45 + 6 * 3 * 35))


# library golden file ---------------------------------------------------------

LLN_GOLDEN = pathlib.Path(__file__).parent / "golden" / "library" / "lln_sweep.json"


def _lln_golden_cases():
    # Seeded lln_sweep inputs: two to four atoms, the default or a rounded
    # real observable, every merge_tol and moment order of the grid, and
    # last one that its guard limit refuses.
    rng = np.random.default_rng(2021)
    for case in range(48):
        dim = int(rng.integers(2, 5))
        omega = State(AtomicAlgebra(dim), rng.dirichlet(np.ones(dim)))
        values = np.round(rng.normal(0.0, 2.0, dim), 1) if case % 2 else None
        ns = sorted(set(rng.integers(1, 41, int(rng.integers(1, 9))).tolist()))
        yield dict(omega=omega, ns=ns, k=case % 4 + 1, eps=float(rng.uniform(0.01, 0.5)),
                   observable=None if values is None else Element(omega.algebra, values),
                   merge_tol=(None, 1e-12, 1e-6)[case % 3])
    yield dict(omega=State(AtomicAlgebra(3), [0.2, 0.3, 0.5]), ns=[5, 40], k=2, eps=0.1,
               guard_bits=8)


def lln_golden_records():
    """Each case's ``[n, moment, variance, tail]`` rows, floats as
    ``float.hex``, or the text of the GuardExceeded it raises."""
    records = []
    for case in _lln_golden_cases():
        try:
            table = lln_sweep(**case)
        except GuardExceeded as exc:
            records.append(str(exc))
            continue
        records.append([[n] + [float.hex(x) for x in table[n]] for n in case["ns"]])
    return records


def test_lln_sweep_matches_the_library_golden_file():
    assert lln_golden_records() == json.loads(LLN_GOLDEN.read_text(encoding="utf-8"))
