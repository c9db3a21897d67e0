"""States, generated subalgebras, independence, and the weak law of large numbers.

A state on an atomic algebra is a probability weight vector: the positive
unital functionals are exactly ``x -> sum_i w_i a_i`` with ``w_i >= 0``
summing to 1.  Pure states are the point masses, and a state is pure exactly
when it is multiplicative.  On tensor powers, product states evaluate
elementary tensors factor by factor, with a designated tail state for
positions beyond the explicit factors.

A unital subalgebra is a partition of the atoms; the one generated by
self-adjoint elements merges the atoms on which every generator takes one
value (within tol).  Two subalgebras are independent under a state when the
joint table of their partitions is the product of its margins, and the
distribution of self-adjoint elements pushes the weights onto the blocks of
the subalgebra they generate.  Averages of independent copies of an
observable are handled by exact convolution of that pushforward, which
keeps moment and tail computations for the weak law exact up to float
rounding.  An observable whose values are integers in arithmetic
progression (the coordinate observable among them) is convolved on the
integer lattice of its sums, and its tails are cut at exact rational
thresholds; any other is convolved by sorting and merging its float sums.
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
    _Frozen,
    _Value,
    _check_dim,
    _guard,
    _integer,
    _kinds,
    _positive,
    _real,
    _tol,
)

# A weak-law sweep refuses more than 2**SWEEP_GUARD_BITS support-by-value
# products (see _AverageSweep.advance_to).
SWEEP_GUARD_BITS = 23
# just below log(sys.float_info.max) = 709.78
_LOG_FLOAT_MAX = 709.0


class State(_Value):
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
        return cls(algebra, algebra.atom(index).coeffs.real)

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
            if f.algebra is not tail.algebra and f.algebra != tail.algebra:
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
        position = _integer(position, "tensor position", 1)
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
    np.greater(ordered[1:] - ordered[:-1], tol, out=starts[1:])
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
    subalgebra exactly when its coefficients are constant on every block,
    up to the clustering within tol that ``generated_subalgebra`` uses.
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
        # the real parts, and apart from them the imaginary parts, put each
        # block in one cluster
        t = _tol(tol)
        ids = [_cluster_ids(part, t) for part in (x.coeffs.real, x.coeffs.imag)]
        return all(np.ptp(i[list(block)]) == 0 for i in ids for block in self.blocks)


def _partition(generators, algebra, tol, what="generators"):
    # Atoms share a block when every generator puts them in one tol-cluster.
    # Returns the per-generator cluster ids, each atom's block label and each
    # block's first atom; blocks are numbered by their first atom, and no
    # generators give one block.
    ids = []
    for g in generators:
        if g.algebra != algebra:
            raise AlgebraMismatch("generators live on different algebras")
        if not g.is_self_adjoint(tol):
            raise ValueError("%s must be self-adjoint" % what)
        ids.append(_cluster_ids(g.coeffs.real, tol))
    first, labels = _kinds(np.array(ids, dtype=int).reshape(len(ids), algebra.dim).T)
    return ids, labels, np.flatnonzero(first)


def generated_subalgebra(generators, algebra=None, tol=None):
    """Smallest unital subalgebra containing the given self-adjoint elements.

    Atoms are merged when every generator takes the same coefficient (within
    tol) on them.  With no generators the result is the scalars, a single
    block, so ``algebra`` must then be supplied.
    """
    generators = tuple(generators)
    if algebra is None:
        if not generators:
            raise ValueError("need an algebra when the generator set is empty")
        algebra = generators[0].algebra
    _, labels, _ = _partition(generators, algebra, _tol(tol))
    atoms = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels))[:-1]
    return Subalgebra(algebra, tuple(tuple(b.tolist()) for b in np.split(atoms, ends)))


def independence_test(gens_a, gens_b, omega, tol=None):
    """Check whether two generated subalgebras are independent under omega.

    Independence means the state factors over products of block projections:
    ``omega(P Q) = omega(P) omega(Q)`` for every pair, that is, the joint
    table of the two atom partitions is the product of its margins.  Returns
    ``(flag, witness)`` where the witness is the first offending ``(P, Q)``
    pair in row-major block order, if any.
    """
    t = _tol(tol)
    algebra = omega.algebra
    _, rows, firsts_a = _partition(gens_a, algebra, t)
    _, cols, firsts_b = _partition(gens_b, algebra, t)
    shape = (firsts_a.size, firsts_b.size)
    table = np.bincount(rows * shape[1] + cols, omega.weights, shape[0] * shape[1]).reshape(shape)
    off = np.abs(table - np.outer(table.sum(axis=1), table.sum(axis=0))) > t
    if not off.any():
        return True, None
    i, j = np.unravel_index(np.argmax(off), shape)
    return False, (Element(algebra, (rows == i).astype(complex)),
                   Element(algebra, (cols == j).astype(complex)))


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


def distribution_of(gens, omega, tol=None):
    """Joint pushforward distribution of self-adjoint elements under omega.

    Atom ``i`` contributes its weight to the value vector ``(g(i) for g in
    gens)``; coefficients equal within tol are identified (the cluster takes
    the value of its lowest atom).  The atoms of the distribution are the
    blocks of the subalgebra the observables generate.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one observable")
    t = _tol(tol)
    for g in gens:
        if g.algebra != omega.algebra:
            raise AlgebraMismatch("observable and state algebras differ")
    ids, labels, firsts = _partition(gens, omega.algebra, t, "observables")
    values = []
    for g, clusters in zip(gens, ids):
        # a generator's value on a block: its coefficient at the lowest atom
        # of its cluster there
        lowest = np.unique(clusters, return_index=True)[1]
        values.append(g.coeffs.real[lowest[clusters[firsts]]].tolist())
    masses = np.bincount(labels, omega.weights).tolist()
    points = values[0] if len(gens) == 1 else list(zip(*values))
    atoms = sorted(zip(points, masses), key=lambda a: a[0])
    names = "joint of %d observables" % len(gens) if len(gens) > 1 else "observable"
    return Distribution(tuple(atoms), names)


def annihilator_projection(gens, targets, tol=None):
    """Indicator projection of the event ``g_k = t_k for every k``.

    The complement annihilates every ``(t_k 1 - g_k)``, which is what makes
    conditional reasoning on the event algebraic.
    """
    gens = tuple(gens)
    targets = tuple(_real(t, "target") for t in targets)
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

    Returns ``(values, masses)`` arrays.  When the distinct values are the
    integers ``v0, v0 + g, ...`` and ``merge_tol < g``, the support is the
    lattice of exact sums ``n * v0 + g * k``, each rounded once to a float;
    otherwise support points closer than ``merge_tol`` are merged to keep
    the support size O(n * dim).
    """
    n = _integer(n, "n", 1)
    sweep = _AverageSweep(values, masses, merge_tol)
    # the sweep's sums are centred; the raw ones lie within n * spread of n * mean
    if abs(n * sweep.mean) + n * sweep.spread > sys.float_info.max:
        raise ValueError("sums of %d copies span beyond the float range" % n)
    sweep.advance_to(n)
    if sweep.lattice is None:
        return sweep.sums + n * sweep.mean, sweep.sum_masses
    v0, g = sweep.lattice
    sums = n * v0 + g * np.arange(sweep.sum_masses.size, dtype=object)
    return sums.astype(float), sweep.sum_masses


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


def _progression(values, tol):
    # (v0, g) as Python ints when the distinct values are the integers v0,
    # v0 + g, v0 + 2 g, ... with tol < g (a single value has step 1), else
    # None
    if not all(map(float.is_integer, values)):
        return None
    distinct = sorted(set(map(int, values)))
    g = distinct[1] - distinct[0] if len(distinct) > 1 else 1
    if g <= tol or any(b - a != g for a, b in zip(distinct, distinct[1:])):
        return None
    return distinct[0], g


class _AverageSweep:
    """Iterates the exact distribution of the n-fold sum incrementally.

    When the values are integers in arithmetic progression ``v0, v0 + g,
    ...`` and ``merge_tol < g`` (the coordinate observable always is), the
    sum lives on the lattice ``n * v0 + g * k``: ``sum_masses[k]`` is the
    mass at k, each step is one ``np.convolve`` with the weights binned
    onto the progression (``kernel``), the average deviates from the mean
    by ``(v0 - mean) + g * k / n``, and tails are cut at exact rational
    thresholds.  Otherwise ``lattice`` is None, and ``sums`` and
    ``sum_masses`` hold the support and masses of the sum of n centred
    copies ``x - mean``, so ``sums / n`` is the deviation of the average;
    each step convolves them with one more copy and merges support points
    closer than ``merge_tol``.  Either way a step is charged support-size
    times value-count products, and a pass refuses to form more than
    ``2**guard_bits`` of them (``SWEEP_GUARD_BITS`` by default).
    """

    def __init__(self, values, masses, merge_tol=None, guard_bits=None):
        values = np.asarray(values, dtype=float)
        self.masses = np.asarray(masses, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            self.mean = float(np.dot(values, self.masses))
            self.values = values - self.mean
            self.spread = spread = float(np.max(np.abs(self.values)))
        if not math.isfinite(spread):
            raise ValueError("the mean of the observable is beyond the float range")
        # Sums of n centred copies lie within n * spread of 0, so they differ
        # by at most 2 n spread; an average deviates from the mean by at most
        # spread, and the masses sum to 1, so a k-th moment is at most
        # spread**k.  These bound n and k before any float overflows.
        self.max_copies = sys.float_info.max / (2.0 * spread) if spread else math.inf
        self.max_order = _LOG_FLOAT_MAX / math.log(spread) if spread > 1.0 else math.inf
        self.tol = _tol(merge_tol, "merge_tol")
        self.guard_bits = guard_bits
        self.lattice = _progression(values.tolist(), self.tol)
        if self.lattice is not None:
            v0, g = self.lattice
            self.kernel = np.bincount([(int(v) - v0) // g for v in values.tolist()], self.masses)
            self.cuts = {}
        self.work = 0
        self.sums = np.zeros(1)
        self.sum_masses = np.ones(1)
        self.n = 0

    def step(self):
        self.work += self.sum_masses.size * self.values.size
        if self.lattice is not None:
            self.sum_masses = np.convolve(self.sum_masses, self.kernel)
        else:
            v = np.add.outer(self.sums, self.values).ravel()
            m = np.multiply.outer(self.sum_masses, self.masses).ravel()
            order = np.argsort(v, kind="stable")
            v = v[order]
            first = _gap_starts(v, self.tol).nonzero()[0]
            self.sums = v[first]
            self.sum_masses = np.add.reduceat(m[order], first)
        self.n += 1

    def advance_to(self, n):
        while self.n < n:
            # convolution never shrinks the support (merging aside), so the
            # remaining steps form at least this many products
            need = self.work + self.sum_masses.size * self.values.size * (n - self.n)
            _guard(math.log2(need), SWEEP_GUARD_BITS, self.guard_bits,
                   "support-by-value products at least, to sweep to n = %d", n)
            if n > self.max_copies:
                raise ValueError("sums of %d copies span beyond the float range" % n)
            self.step()
        # the average's deviations at n, read by every moment and tail
        if self.lattice is None:
            self.deviation = np.abs(self.sums / self.n)
        else:
            v0, g = self.lattice
            k = np.arange(self.sum_masses.size)
            self.deviation = np.abs((v0 - self.mean) + float(g) * k / self.n)

    def moment(self, k):
        if k > self.max_order:
            raise ValueError(
                "moment %d of the deviation at n = %d is beyond the float range" % (k, self.n)
            )
        return float(np.dot(self.sum_masses, self.deviation ** k))

    def tail(self, eps):
        if self.lattice is None:
            return float(self.sum_masses[self.deviation > eps].sum())
        if eps not in self.cuts:
            # |v0 + g k / n - mean| > eps exactly when k < n A or k > n B, for
            # A = (mean - eps - v0) / g and B = (mean + eps - v0) / g, exact
            # rationals of the given floats over one denominator
            v0, g = self.lattice
            (m, q), (e, s) = self.mean.as_integer_ratio(), eps.as_integer_ratio()
            self.cuts[eps] = (m * s - e * q - v0 * q * s, m * s + e * q - v0 * q * s, q * s * g)
        low, high, den = self.cuts[eps]
        size = self.sum_masses.size
        below = min(max(-(-self.n * low // den), 0), size)  # k < ceil(n A)
        above = min(max(self.n * high // den + 1, 0), size)  # k > floor(n B)
        return float(self.sum_masses[:below].sum() + self.sum_masses[above:].sum())


def _average_sweeps(omega, ns, observable=None, merge_tol=None, guard_bits=None):
    """Yield ``(n, sweep)`` at each distinct n of the grid, in increasing
    order, from a single convolution pass that is never restarted."""
    ns = sorted(set(_integer(n, "n", 1) for n in ns))
    values = _observable_values(omega, observable)
    sweep = _AverageSweep(values, omega.weights, merge_tol, guard_bits)
    for n in ns:
        sweep.advance_to(n)
        yield n, sweep


def lln_sweep(omega, ns, k, eps, observable=None, merge_tol=None, guard_bits=None):
    """Weak-law figures of the n-fold average over a grid, in one pass.

    Returns ``{n: (moment, variance, tail)}``: the k-th absolute moment and
    the variance of ``s_n - omega(x)``, and ``P(|s_n - omega(x)| > eps)``,
    all read from the same convolution state at each n.  The pass forms at
    most ``2**guard_bits`` support-by-value products (``SWEEP_GUARD_BITS``
    by default) and raises GuardExceeded before it would form more.
    """
    k = _integer(k, "moment order", 1)
    eps = _positive(eps, "eps")
    table = {}
    for n, sweep in _average_sweeps(omega, ns, observable, merge_tol, guard_bits):
        moment = sweep.moment(k)
        table[n] = (moment, moment if k == 2 else sweep.moment(2), sweep.tail(eps))
    return table


def lln_moment(omega, n, k, observable=None, merge_tol=None):
    """k-th absolute moment of the deviation of the n-fold average.

    ``E |s_n - omega(x)|^k`` where ``s_n`` is the average of n independent
    copies of the observable (default: the coordinate observable with
    coefficients 0..d-1).  Odd k is accepted with a warning since the
    absolute moment no longer matches the signed one.
    """
    n = _integer(n, "n", 1)
    k = _integer(k, "moment order", 1)
    if k % 2 == 1:
        warnings.warn("odd moment order %d: computing the absolute moment" % k)
    return lln_moment_sweep(omega, [n], k, observable, merge_tol)[n]


def lln_moment_sweep(omega, ns, k, observable=None, merge_tol=None):
    """lln_moment over a grid of n values, sharing one convolution pass."""
    k = _integer(k, "moment order", 1)
    return {n: sweep.moment(k) for n, sweep in _average_sweeps(omega, ns, observable, merge_tol)}


def chebyshev_tail(omega, n, eps, observable=None, merge_tol=None):
    """Exact P(|s_n - omega(x)| > eps) for the n-fold average."""
    eps = _positive(eps, "eps")
    _, sweep = next(_average_sweeps(omega, [n], observable, merge_tol))
    return sweep.tail(eps)
