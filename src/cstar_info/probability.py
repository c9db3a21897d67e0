"""States, generated subalgebras, independence, and the weak law of large numbers.

A state on an atomic algebra is a probability weight vector: the positive
unital functionals are exactly ``x -> sum_i w_i a_i`` with ``w_i >= 0``
summing to 1.  Pure states are the point masses, and a state is pure exactly
when it is multiplicative.  On tensor powers, product states evaluate
elementary tensors factor by factor, with a designated tail state for
positions beyond the explicit factors.

Distributions of self-adjoint elements are pushforwards of the weights onto
the coefficient values.  Averages of independent copies of an observable are
handled by exact convolution of that pushforward, which keeps moment and
tail computations for the weak law exact up to float rounding.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (
    EQ_TOL,
    AlgebraMismatch,
    AtomicAlgebra,
    Element,
    TensorElement,
    _ArrayValue,
    _Frozen,
    _check_dim,
    _guard,
    _positive,
    _tol,
)

# A weak-law sweep refuses more than 2**SWEEP_GUARD_BITS support-by-value
# products (see _AverageSweep.advance_to).
SWEEP_GUARD_BITS = 23
# just below log(sys.float_info.max) = 709.78
_LOG_FLOAT_MAX = 709.0


class State(_ArrayValue):
    """Probability weights over the atoms: a positive unital functional."""

    __slots__ = ("algebra", "weights")

    def __init__(self, algebra, weights, tol=None):
        if not isinstance(algebra, AtomicAlgebra):
            raise TypeError("algebra must be an AtomicAlgebra")
        t = _tol(tol)
        w = np.array(weights, dtype=float)
        if w.shape != (algebra.dim,):
            raise ValueError("expected %d weights, got shape %r" % (algebra.dim, w.shape))
        # Python floats overflow to inf, and inf - inf gives nan, without a
        # numpy warning; for a state's few weights they are also cheaper than
        # numpy reductions.  Only a non-finite sum can come from a non-finite
        # weight.
        values = w.tolist()
        total = sum(values)
        if not math.isfinite(total) and not all(map(math.isfinite, values)):
            raise ValueError("state weights must be finite")
        if min(values) < -t:
            raise ValueError("state weights must be nonnegative")
        if abs(total - 1.0) > t:
            raise ValueError("state weights must sum to 1 (got %.17g)" % total)
        if min(values) < 0.0:  # weights the tolerance admits below zero
            w[w < 0.0] = 0.0
        w.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, algebra):
        return cls(algebra, np.full(algebra.dim, 1.0 / algebra.dim))

    @classmethod
    def point_mass(cls, algebra, index):
        w = np.zeros(algebra.dim)
        w[int(index)] = 1.0
        return cls(algebra, w)

    def __call__(self, x):
        if not isinstance(x, Element):
            raise TypeError("State evaluates single-factor Elements; see ProductState")
        if x.algebra != self.algebra:
            raise AlgebraMismatch("element lives on %r, state on %r" % (x.algebra, self.algebra))
        return complex(np.dot(self.weights, x.coeffs))

    def is_pure(self, tol=None):
        """Pure iff multiplicative iff a point mass."""
        t = _tol(tol)
        return bool(np.max(self.weights) >= 1.0 - t)

    def _identity(self):
        return self.algebra, self.weights

    def __repr__(self):
        return "State(%r, %s)" % (self.algebra, np.array2string(self.weights, separator=", "))

    def to_dict(self):
        return {"dim": self.algebra.dim, "weights": [float(w) for w in self.weights]}

    @classmethod
    def from_dict(cls, data, algebra=None):
        return cls(_check_dim(data, algebra), data["weights"])


class ProductState(_Frozen):
    """Product state on a tensor power: explicit factors, then an iid tail.

    ``state_at(p)`` is ``factors[p-1]`` while it exists and ``tail`` beyond;
    an elementary tensor ``x_1 ⊗ ... ⊗ x_n`` evaluates to the product of the
    ``state_at(k)(x_k)``, and implicit identity positions contribute 1.
    """

    __slots__ = ("factors", "tail")

    def __init__(self, factors=(), tail=None):
        factors = tuple(factors)
        if tail is None:
            if not factors:
                raise ValueError("need a tail state or at least one factor")
            tail = factors[-1]
        if not isinstance(tail, State):
            raise TypeError("tail must be a State")
        for f in factors:
            if not isinstance(f, State):
                raise TypeError("factors must be States")
            if f.algebra != tail.algebra:
                raise AlgebraMismatch("all factors must share one algebra")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "tail", tail)

    @classmethod
    def iid(cls, state):
        return cls((), state)

    @property
    def algebra(self):
        return self.tail.algebra

    def state_at(self, position):
        position = int(position)
        if position < 1:
            raise ValueError("tensor positions are 1-based")
        if position <= len(self.factors):
            return self.factors[position - 1]
        return self.tail

    def __call__(self, x):
        if not isinstance(x, TensorElement):
            raise TypeError("ProductState evaluates TensorElements; see State")
        if x.factor_algebra != self.algebra:
            raise AlgebraMismatch(
                "element factor algebra %r, state algebra %r" % (x.factor_algebra, self.algebra)
            )
        # omega(x_1 ⊗ ... ⊗ x_n) = prod_k omega_k(x_k), one elementary tensor
        # at a time; identity positions contribute omega_k(1) = 1
        pairs = x.factor_sums(lambda pos: self.state_at(pos).weights)
        return complex(sum(value for _, value in pairs))

    def __repr__(self):
        return "ProductState(%d explicit factors, tail %r)" % (len(self.factors), self.tail)


def evaluate(state, x):
    """Pair a State with an Element or a ProductState with a TensorElement."""
    return state(x)


def pure_check(state, tol=None):
    return state.is_pure(tol)


# generated subalgebras ------------------------------------------------------


def _gap_starts(ordered, tol):
    # Along sorted values, where a cluster starts: a value more than tol
    # above its predecessor opens a new cluster.
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.greater(np.diff(ordered), tol, out=starts[1:])
    return starts


def _cluster_ids(values, tol):
    # Label each value by its cluster, counting clusters in increasing order.
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ids = np.empty(len(values), dtype=int)
    ids[order] = np.cumsum(_gap_starts(values[order], tol)) - 1
    return ids


@dataclass(frozen=True)
class Subalgebra:
    """Unital subalgebra of an atomic algebra, stored as its atom partition.

    ``blocks`` are the minimal projections: an element belongs to the
    subalgebra exactly when its coefficients are constant on every block.
    """

    parent: AtomicAlgebra
    blocks: tuple

    def __post_init__(self):
        seen = sorted(i for block in self.blocks for i in block)
        if seen != list(range(self.parent.dim)):
            raise ValueError("blocks must partition the atom set")

    @property
    def dim(self):
        return len(self.blocks)

    def block_projections(self):
        out = []
        for block in self.blocks:
            coeffs = np.zeros(self.parent.dim, dtype=complex)
            coeffs[list(block)] = 1.0
            out.append(Element(self.parent, coeffs))
        return out

    def contains(self, x, tol=None):
        t = _tol(tol)
        for block in self.blocks:
            vals = x.coeffs[list(block)]
            if np.max(np.abs(vals - vals[0])) > t:
                return False
        return True


def generated_subalgebra(generators, algebra=None, tol=None):
    """Smallest unital subalgebra containing the given self-adjoint elements.

    Atoms are merged when every generator takes the same coefficient (within
    tol) on them.  With no generators the result is the scalars, a single
    block, so ``algebra`` must then be supplied.
    """
    generators = tuple(generators)
    t = _tol(tol)
    if algebra is None:
        if not generators:
            raise ValueError("need an algebra when the generator set is empty")
        algebra = generators[0].algebra
    keys = [()] * algebra.dim
    for g in generators:
        if g.algebra != algebra:
            raise AlgebraMismatch("generators live on different algebras")
        if not g.is_self_adjoint(t):
            raise ValueError("generators must be self-adjoint")
        ids = _cluster_ids(g.coeffs.real, t)
        keys = [key + (int(ids[i]),) for i, key in enumerate(keys)]
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    blocks = sorted((tuple(v) for v in groups.values()), key=lambda b: b[0])
    return Subalgebra(algebra, tuple(blocks))


def independence_test(gens_a, gens_b, omega, tol=None):
    """Check whether two generated subalgebras are independent under omega.

    Independence means the state factors over products of block projections:
    ``omega(P Q) = omega(P) omega(Q)`` for every pair.  Returns ``(flag,
    witness)`` where the witness is an offending ``(P, Q)`` pair, if any.
    """
    t = _tol(tol)
    sub_a = generated_subalgebra(gens_a, algebra=omega.algebra, tol=t)
    sub_b = generated_subalgebra(gens_b, algebra=omega.algebra, tol=t)
    for p in sub_a.block_projections():
        wp = omega(p).real
        for q in sub_b.block_projections():
            lhs = omega(p * q).real
            rhs = wp * omega(q).real
            if abs(lhs - rhs) > t:
                return False, (p, q)
    return True, None


# distributions --------------------------------------------------------------


@dataclass(frozen=True)
class Distribution:
    """Finite real (or vector) pushforward distribution.

    ``atoms`` is a sorted tuple of ``(value, mass)`` pairs; values are floats
    for a single observable and tuples of floats for joint distributions.
    """

    atoms: tuple
    description: str = ""

    def __post_init__(self):
        masses = np.array([m for _, m in self.atoms], dtype=float)
        if masses.size and float(np.min(masses)) < -EQ_TOL:
            raise ValueError("distribution masses must be nonnegative")

    def total(self):
        return float(sum(m for _, m in self.atoms))

    def masses(self):
        return {v: m for v, m in self.atoms}

    def cdf(self, t, tol=None):
        """Mass of values <= t, componentwise for joint values."""
        eps = _tol(tol)
        total = 0.0
        for value, mass in self.atoms:
            if isinstance(value, tuple):
                point = tuple(t) if isinstance(t, (tuple, list)) else (t,) * len(value)
                ok = all(v <= u + eps for v, u in zip(value, point))
            else:
                ok = value <= t + eps
            if ok:
                total += mass
        return total

    def to_dict(self):
        atoms = []
        for value, mass in self.atoms:
            t = list(value) if isinstance(value, tuple) else value
            atoms.append({"t": t, "p": float(mass)})
        return {"atoms": atoms}

    @classmethod
    def from_dict(cls, data, description=""):
        atoms = []
        for entry in data["atoms"]:
            t = entry["t"]
            value = tuple(float(v) for v in t) if isinstance(t, list) else float(t)
            atoms.append((value, float(entry["p"])))
        return cls(tuple(sorted(atoms, key=lambda a: a[0])), description)


def _generator_clusters(gens, tol):
    reps = []
    ids = []
    for g in gens:
        if not g.is_self_adjoint(tol):
            raise ValueError("observables must be self-adjoint")
        labels = _cluster_ids(g.coeffs.real, tol)
        rep = {}
        for i, lab in enumerate(labels):
            rep.setdefault(int(lab), float(g.coeffs.real[i]))
        reps.append(rep)
        ids.append(labels)
    return reps, ids


def distribution_of(gens, omega, tol=None):
    """Joint pushforward distribution of self-adjoint elements under omega.

    Atom ``i`` contributes its weight to the value vector ``(g(i) for g in
    gens)``; coefficients equal within tol are identified (the cluster takes
    the value of its lowest atom).
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one observable")
    t = _tol(tol)
    for g in gens:
        if g.algebra != omega.algebra:
            raise AlgebraMismatch("observable and state algebras differ")
    reps, ids = _generator_clusters(gens, t)
    acc = {}
    for i in range(omega.algebra.dim):
        key = tuple(int(labels[i]) for labels in ids)
        acc[key] = acc.get(key, 0.0) + float(omega.weights[i])
    atoms = []
    for key, mass in acc.items():
        values = tuple(reps[k][lab] for k, lab in enumerate(key))
        atoms.append((values[0] if len(gens) == 1 else values, mass))
    atoms.sort(key=lambda a: a[0])
    names = "joint of %d observables" % len(gens) if len(gens) > 1 else "observable"
    return Distribution(tuple(atoms), names)


def annihilator_projection(gens, targets, tol=None):
    """Indicator projection of the event ``g_k = t_k for every k``.

    The complement annihilates every ``(t_k 1 - g_k)``, which is what makes
    conditional reasoning on the event algebraic.
    """
    gens = tuple(gens)
    targets = tuple(float(t) for t in targets)
    if len(gens) != len(targets):
        raise ValueError("need one target per observable")
    if not gens:
        raise ValueError("need at least one observable")
    t = _tol(tol)
    algebra = gens[0].algebra
    mask = np.ones(algebra.dim, dtype=bool)
    for g, target in zip(gens, targets):
        if g.algebra != algebra:
            raise AlgebraMismatch("observables live on different algebras")
        if not g.is_self_adjoint(t):
            raise ValueError("observables must be self-adjoint")
        mask &= np.abs(g.coeffs.real - target) <= t
    return Element(algebra, mask.astype(complex))


def prob_interval(x, omega, lo, hi, tol=None):
    """omega-mass of the spectral interval [lo, hi] of a self-adjoint x."""
    t = _tol(tol)
    if not x.is_self_adjoint(t):
        raise ValueError("interval probabilities need a self-adjoint element")
    if x.algebra != omega.algebra:
        raise AlgebraMismatch("element and state algebras differ")
    vals = x.coeffs.real
    mask = (vals >= lo - t) & (vals <= hi + t)
    return float(np.sum(omega.weights[mask]))


# weak law of large numbers ---------------------------------------------------


def sum_pushforward(values, masses, n, merge_tol=None):
    """Exact distribution of the sum of n iid copies of a finite variable.

    Returns ``(values, masses)`` arrays; support points closer than
    ``merge_tol`` are merged to keep the support size O(n * dim).
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1 summands")
    sweep = _AverageSweep(values, masses, merge_tol)
    # the sweep's sums are centred; the raw ones lie within n * spread of n * mean
    if abs(n * sweep.mean) + n * sweep.spread > sys.float_info.max:
        raise ValueError("sums of %d copies span beyond the float range" % n)
    sweep.advance_to(n)
    return sweep.sums + n * sweep.mean, sweep.sum_masses


def _observable_values(omega, observable):
    if observable is None:
        return np.arange(omega.algebra.dim, dtype=float)
    if observable.algebra != omega.algebra:
        raise AlgebraMismatch("observable and state algebras differ")
    if not observable.is_self_adjoint():
        raise ValueError("observable must be self-adjoint")
    if not np.all(np.isfinite(observable.coeffs)):
        raise ValueError("observable values must be finite")
    return observable.coeffs.real.copy()


class _AverageSweep:
    """Iterates the exact distribution of the n-fold sum incrementally.

    ``sums`` and ``sum_masses`` hold the support and masses of the sum of n
    centred copies ``x - mean``, so ``sums / n`` is the deviation of the
    average; each step convolves them with one more copy and merges support
    points closer than ``merge_tol``.  A step forms support-size times
    value-count products, and a pass refuses to form more than
    ``2**guard_bits`` of them (``SWEEP_GUARD_BITS`` by default).
    """

    def __init__(self, values, masses, merge_tol=None, guard_bits=None):
        self.masses = np.asarray(masses, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            self.mean = float(np.dot(values, self.masses))
            self.values = np.asarray(values, dtype=float) - self.mean
            self.spread = spread = float(np.max(np.abs(self.values)))
        if not math.isfinite(spread):
            raise ValueError("the mean of the observable is beyond the float range")
        # Sums of n centred copies lie within n * spread of 0, so they differ
        # by at most 2 n spread; an average deviates from the mean by at most
        # spread, and the masses sum to 1, so a k-th moment is at most
        # spread**k.  These bound n and k before any float overflows.
        self.max_copies = sys.float_info.max / (2.0 * spread) if spread else math.inf
        self.max_order = _LOG_FLOAT_MAX / math.log(spread) if spread > 1.0 else math.inf
        self.tol = _tol(merge_tol)
        self.guard_bits = guard_bits
        self.work = 0
        self.sums = np.zeros(1)
        self.sum_masses = np.ones(1)
        self.n = 0

    def step(self):
        v = (self.sums[:, None] + self.values[None, :]).ravel()
        m = (self.sum_masses[:, None] * self.masses[None, :]).ravel()
        order = np.argsort(v, kind="stable")
        v = v[order]
        first = np.flatnonzero(_gap_starts(v, self.tol))
        self.sums = v[first]
        self.sum_masses = np.add.reduceat(m[order], first)
        self.work += m.size
        self.n += 1

    def advance_to(self, n):
        while self.n < n:
            # convolution never shrinks the support (merging aside), so the
            # remaining steps form at least this many products
            need = self.work + self.sums.size * self.values.size * (n - self.n)
            _guard(math.log2(need), SWEEP_GUARD_BITS, self.guard_bits,
                   "support-by-value products at least, to sweep to n = %d", n)
            if n > self.max_copies:
                raise ValueError("sums of %d copies span beyond the float range" % n)
            self.step()

    def moment(self, k):
        if k > self.max_order:
            raise ValueError(
                "moment %d of the deviation at n = %d is beyond the float range" % (k, self.n)
            )
        dev = np.abs(self.sums / self.n)
        return float(np.dot(self.sum_masses, dev ** k))

    def tail(self, eps):
        dev = np.abs(self.sums / self.n)
        return float(np.sum(self.sum_masses[dev > eps]))


def _average_sweeps(omega, ns, observable=None, merge_tol=None, guard_bits=None):
    """Yield ``(n, sweep)`` at each distinct n of the grid, in increasing
    order, from a single convolution pass that is never restarted."""
    ns = sorted(set(int(n) for n in ns))
    if ns and ns[0] < 1:
        raise ValueError("need n >= 1 summands")
    values = _observable_values(omega, observable)
    sweep = _AverageSweep(values, omega.weights, merge_tol, guard_bits)
    for n in ns:
        sweep.advance_to(n)
        yield n, sweep


def _check_moment_order(k):
    k = int(k)
    if k < 1:
        raise ValueError("moment order must be >= 1")
    return k


def lln_sweep(omega, ns, k, eps, observable=None, merge_tol=None, guard_bits=None):
    """Weak-law figures of the n-fold average over a grid, in one pass.

    Returns ``{n: (moment, variance, tail)}``: the k-th absolute moment and
    the variance of ``s_n - omega(x)``, and ``P(|s_n - omega(x)| > eps)``,
    all read from the same convolution state at each n.  The pass forms at
    most ``2**guard_bits`` support-by-value products (``SWEEP_GUARD_BITS``
    by default) and raises GuardExceeded before it would form more.
    """
    k = _check_moment_order(k)
    eps = _positive(eps, "eps")
    return {
        n: (sweep.moment(k), sweep.moment(2), sweep.tail(eps))
        for n, sweep in _average_sweeps(omega, ns, observable, merge_tol, guard_bits)
    }


def lln_moment(omega, n, k, observable=None, merge_tol=None):
    """k-th absolute moment of the deviation of the n-fold average.

    ``E |s_n - omega(x)|^k`` where ``s_n`` is the average of n independent
    copies of the observable (default: the coordinate observable with
    coefficients 0..d-1).  Odd k is accepted with a warning since the
    absolute moment no longer matches the signed one.
    """
    n = int(n)
    k = _check_moment_order(k)
    if k % 2 == 1:
        warnings.warn("odd moment order %d: computing the absolute moment" % k)
    return lln_moment_sweep(omega, [n], k, observable, merge_tol)[n]


def lln_moment_sweep(omega, ns, k, observable=None, merge_tol=None):
    """lln_moment over a grid of n values, sharing one convolution pass."""
    k = _check_moment_order(k)
    return {n: sweep.moment(k) for n, sweep in _average_sweeps(omega, ns, observable, merge_tol)}


def chebyshev_tail(omega, n, eps, observable=None, merge_tol=None):
    """Exact P(|s_n - omega(x)| > eps) for the n-fold average."""
    eps = _positive(eps, "eps")
    _, sweep = next(_average_sweeps(omega, [n], observable, merge_tol))
    return sweep.tail(eps)
