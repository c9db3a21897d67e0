"""Finite abelian C*-algebras over an atomic basis, and their tensor powers.

An atomic basis ``e_0, ..., e_{d-1}`` consists of self-adjoint orthogonal
projections (``e_i e_j = delta_ij e_i``) that sum to the identity.  Every
element of the algebra is a coefficient vector over the atoms, products act
coefficientwise, and the norm is the largest coefficient modulus.  The
spectrum of an element is the set of its distinct coefficients.

Tensor powers are kept factored.  An element of the tensor power is a sum
of elementary tensors ``x_1 ⊗ x_2 ⊗ ...``, each fixing a coefficient vector
at finitely many 1-based positions and implicitly the identity everywhere
else.  Products, the trace and product states factor over elementary
tensors: ``(⊗x_i)(⊗y_i) = ⊗(x_i y_i)``, ``tr(⊗x_i) = prod tr(x_i)`` and
``omega(⊗x_i) = prod omega_i(x_i)``, so an n-fold power costs O(n d) and
elements of arbitrarily high (finite) level stay cheap.  The expansion over
basis strings (``TensorElement.terms``) is built only when asked for, and
operations that genuinely need every coefficient (norm, spectrum,
functional calculus, truncation to a dense vector) expand the element over
all ``d**level`` atomic strings behind an explicit size guard.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers

import numpy as np

# Tolerance used by every equality / positivity / projection predicate.
EQ_TOL = 1e-9
# Sparse coefficients below this modulus are dropped after arithmetic.
ZERO_TOL = 1e-15
# Dense expansions refuse to materialize more than 2**GUARD_BITS strings.
GUARD_BITS = 24
# TensorElement.terms refuses more than 2**TERMS_GUARD_BITS strings.
TERMS_GUARD_BITS = 20
# A product of two sums of elementary tensors forms at most this many
# coefficients at once before dropping the pairs that vanish.
PRODUCT_BLOCK_ENTRIES = 1 << 20


class AlgebraMismatch(ValueError):
    """Raised when operands belong to different algebras."""


class GuardExceeded(RuntimeError):
    """Raised when a computation would exceed its size guard."""


def _guard(bits, default, guard_bits, noun, *args):
    """Refuse 2**bits units of work, named by ``noun % args``, above
    2**guard_bits, or above 2**default when guard_bits is None, and return
    that limit.  The 1e-9 slack keeps a log2 that rounds just above a whole
    limit inside it."""
    limit = default if guard_bits is None else _real(guard_bits, "guard_bits")
    if bits > limit + 1e-9:
        raise GuardExceeded("needs ~2^%.5g %s; guard is 2^%g" % (bits, noun % args, limit))
    return limit


def check_guard(dim, level, guard_bits=None):
    """Refuse dense work on more than 2**guard_bits atomic strings."""
    _guard(level * math.log2(dim), GUARD_BITS, guard_bits,
           "strings to expand %d**%d densely", dim, level)


def _tol(tol, name="tol"):
    return EQ_TOL if tol is None else _real(tol, name, "a finite real number >= 0", 0.0)


def _positive(value, name):
    # at least the least positive float: above 0, with -0.0 refused
    return _real(value, name, "positive and finite", math.ulp(0.0))


def _real(value, name, rule="a finite real number", low=-math.inf, high=math.inf):
    # a tolerance, rate, probability, base or guard limit as a float in
    # [low, high]: float() would read a bool as 0 or 1 and a string as the
    # number it spells, and a NaN passes a range check written as "refuse
    # if below", so all three are refused, as is inf; a plain float, the
    # common case, skips float()
    if type(value) is not float:
        if isinstance(value, (bool, np.bool_, str, bytes)):
            raise ValueError("%s must be %s, got %r" % (name, rule, value))
        value = float(value)
    if math.isfinite(value) and low <= value <= high:
        return value
    raise ValueError("%s must be %s, got %r" % (name, rule, value))


def _integer(value, name, low=-math.inf):
    # a count, seed, index, position or level as an int of at least low:
    # int() would truncate 2.5 and overflow on inf, and a bool is an int
    # only by accident, so all three are refused; a numeric string is read
    # as the integer it spells; a plain int, the common case, skips the
    # checks
    if type(value) is not int:
        if isinstance(value, (bool, np.bool_)) or not (
                isinstance(value, numbers.Integral) or float(value).is_integer()):
            raise ValueError("%s must be an integer, got %r" % (name, value))
        value = int(value)
    if value < low:
        raise ValueError("%s must be an integer >= %d, got %d" % (name, low, value))
    return value


class _Frozen:
    """Immutable value: constructors and unpickling fill the slots with
    ``object.__setattr__``, and a copy is the value itself."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __setstate__(self, state):
        # pickled from __slots__ as (None, {slot: value}); arrays come back
        # writeable
        for name, value in state[1].items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)


class _Value(_Frozen):
    """Frozen value equal to another of its type when both ``_identity()``
    pairs ``(key, array)`` have equal keys and arrays (or None for both)."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        key, arr = self._identity()
        other_key, other_arr = other._identity()
        return key == other_key and (arr is None or bool(np.array_equal(arr, other_arr)))

    def __hash__(self):
        key, arr = self._identity()
        # + 0.0 turns -0.0 into 0.0: equal values must hash alike
        return hash(key if arr is None else (key, (arr + 0.0).tobytes()))


class _TermMap:
    """A term map as an identity key: equal when the dicts are, which stops
    at once when their sizes differ; hashed as the frozenset of its items."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __eq__(self, other):
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def _check_dim(data, algebra):
    """The algebra of a serialized value: ``algebra``, which must have the
    serialized dimension, or a new one of that dimension."""
    dim = _integer(data["dim"], "serialized dim")
    if algebra is None:
        return AtomicAlgebra(dim)
    if algebra.dim != dim:
        raise AlgebraMismatch("serialized dim %d != algebra dim %d" % (dim, algebra.dim))
    return algebra


def _cluster_sorted(values, tol):
    # Greedy clustering of (real, imag)-sorted values: a value within tol of
    # the first value of the current cluster joins it.  Unlike the gap rule
    # of probability._gap_starts, which compares each value with its
    # sorted predecessor, a cluster here never spans more than tol, so a
    # spectrum keeps a chain of close but distinct values apart.
    out = []
    for v in values:
        if not out or abs(v - out[-1]) > tol:
            out.append(v)
    return tuple(out)


def _distinct(values, tol):
    """Distinct values of a coefficient array, clustered within tol."""
    uniq = np.unique(np.asarray(values, dtype=complex))
    ordered = sorted(uniq.tolist(), key=lambda z: (z.real, z.imag))
    return _cluster_sorted(ordered, tol)


def _call_scalar(f, value, domain_check):
    # Feed real floats to real-domain callables; fall back to the complex
    # value only when the imaginary part is non-negligible.
    arg = value.real if abs(value.imag) <= EQ_TOL else value
    try:
        out = complex(f(arg))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        if domain_check:
            raise ValueError("function undefined on spectrum value %r: %s" % (value, exc))
        return 0j
    if not (cmath.isfinite(out)):
        if domain_check:
            raise ValueError("function not finite on spectrum value %r" % (value,))
        return 0j
    return out


class AtomicAlgebra(_Value):
    """A d-dimensional abelian C*-algebra presented by its atomic basis.

    ``labels``, when given, name the atoms (the alphabet of a source);
    they take no part in arithmetic but are kept for reporting.
    """

    __slots__ = ("dim", "labels")

    def __init__(self, dim, labels=None):
        dim = _integer(dim, "algebra dimension", 1)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != dim:
                raise ValueError("need exactly one label per atom")
            if len(set(labels)) != dim:
                raise ValueError("atom labels must be distinct")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "labels", labels)

    def _identity(self):
        return (self.dim, self.labels), None

    def __repr__(self):
        if self.labels is None:
            return "AtomicAlgebra(%d)" % self.dim
        return "AtomicAlgebra(%d, labels=%r)" % (self.dim, self.labels)

    def element(self, coeffs):
        return Element(self, coeffs)

    def atom(self, i):
        """The atomic projection e_i."""
        i = _integer(i, "atom index", 0)
        if i >= self.dim:
            raise ValueError("atom index must be below %d, got %d" % (self.dim, i))
        coeffs = np.zeros(self.dim, dtype=complex)
        coeffs[i] = 1.0
        return Element(self, coeffs)

    def identity(self):
        return Element(self, np.ones(self.dim, dtype=complex))

    def zero(self):
        return Element(self, np.zeros(self.dim, dtype=complex))


class Element(_Value):
    """``x = sum_i a_i e_i``: a coefficient vector over the atomic basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        if not isinstance(algebra, AtomicAlgebra):
            raise TypeError("algebra must be an AtomicAlgebra")
        arr = np.array(coeffs, dtype=complex)
        if arr.shape != (algebra.dim,):
            raise ValueError(
                "expected %d coefficients, got shape %r" % (algebra.dim, arr.shape)
            )
        arr.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", arr)

    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch(
                "operands live on %r and %r" % (self.algebra, other.algebra)
            )

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return Element(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return Element(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self):
        return Element(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return Element(self.algebra, self.coeffs * other.coeffs)
        if isinstance(other, numbers.Number):
            return Element(self.algebra, self.coeffs * complex(other))
        return NotImplemented

    __rmul__ = __mul__  # the algebra is abelian

    def star(self):
        """Involution: complex conjugation of the coefficients."""
        return Element(self.algebra, np.conj(self.coeffs))

    # analysis -------------------------------------------------------------

    def norm(self):
        """Sup norm over the atomic expansion: max_i |a_i|."""
        return float(np.max(np.abs(self.coeffs)))

    def spectrum(self, tol=None):
        """Distinct coefficients, clustered within tol, sorted by (re, im)."""
        return _distinct(self.coeffs, _tol(tol))

    def is_self_adjoint(self, tol=None):
        return float(np.max(np.abs(self.coeffs.imag))) <= _tol(tol)

    def is_positive(self, tol=None):
        t = _tol(tol)
        return self.is_self_adjoint(t) and float(np.min(self.coeffs.real)) >= -t

    def is_projection(self, tol=None):
        t = _tol(tol)
        if not self.is_self_adjoint(t):
            return False
        a = self.coeffs.real
        return float(np.max(np.abs(a * a - a))) <= t

    def sqrt(self, tol=None):
        """Positive square root; defined only for positive elements."""
        if not self.is_positive(tol):
            raise ValueError("sqrt requires a positive element")
        return Element(self.algebra, np.sqrt(np.clip(self.coeffs.real, 0.0, None)))

    def __abs__(self):
        if not self.is_self_adjoint():
            raise ValueError("absolute value requires a self-adjoint element")
        return Element(self.algebra, np.abs(self.coeffs.real))

    def pos_neg_parts(self, tol=None):
        """Decompose a self-adjoint x as x = x_plus - x_minus with x_plus*x_minus = 0."""
        if not self.is_self_adjoint(tol):
            raise ValueError("pos/neg parts require a self-adjoint element")
        a = self.coeffs.real
        return (
            Element(self.algebra, np.clip(a, 0.0, None)),
            Element(self.algebra, np.clip(-a, 0.0, None)),
        )

    def apply(self, f, domain_check=True):
        """Functional calculus: f applied coefficientwise.

        With ``domain_check`` on, a coefficient outside the domain of f (or
        producing a non-finite value) raises ValueError; with it off such
        coefficients map to 0, which extends e.g. log2 by 0 at 0.
        """
        vals = [_call_scalar(f, complex(c), domain_check) for c in self.coeffs]
        return Element(self.algebra, vals)

    def equals(self, other, tol=None):
        if not isinstance(other, Element) or self.algebra != other.algebra:
            return False
        return float(np.max(np.abs(self.coeffs - other.coeffs))) <= _tol(tol)

    def _identity(self):
        return self.algebra, self.coeffs

    def __repr__(self):
        return "Element(%r, %s)" % (self.algebra, np.array2string(self.coeffs, separator=", "))

    # serialization --------------------------------------------------------

    def to_dict(self):
        return {
            "dim": self.algebra.dim,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, data, algebra=None):
        algebra = _check_dim(data, algebra)
        coeffs = [complex(re, im) for re, im in data["coeffs"]]
        return cls(algebra, coeffs)


class MultiIndex(_Value):
    """Finite-support basis string of a tensor power.

    Stores sorted ``(position, atom_index)`` pairs with 1-based positions;
    every absent position is an identity factor.  The level of the index is
    its largest explicit position (0 for the empty string).
    """

    __slots__ = ("pairs",)

    def __init__(self, entries=()):
        if isinstance(entries, MultiIndex):
            object.__setattr__(self, "pairs", entries.pairs)
            return
        items = entries.items() if isinstance(entries, dict) else entries
        pairs = []
        seen = set()
        for pos, idx in items:
            pos = _integer(pos, "tensor position", 1)
            idx = _integer(idx, "atom index", 0)
            if pos in seen:
                raise ValueError("position collision at %d" % pos)
            seen.add(pos)
            pairs.append((pos, idx))
        pairs.sort()
        object.__setattr__(self, "pairs", tuple(pairs))

    @property
    def support(self):
        return tuple(pos for pos, _ in self.pairs)

    @property
    def level(self):
        return self.pairs[-1][0] if self.pairs else 0

    def get(self, pos, default=None):
        for p, i in self.pairs:
            if p == pos:
                return i
        return default

    def shifted(self, offset):
        """Same string with every position moved by offset."""
        return MultiIndex(tuple((pos + offset, idx) for pos, idx in self.pairs))

    def _identity(self):
        return self.pairs, None

    def __len__(self):
        return len(self.pairs)

    def __repr__(self):
        return "MultiIndex(%r)" % (dict(self.pairs),)


def _index(pairs):
    # MultiIndex from pairs already sorted and checked
    idx = _new(MultiIndex)
    _set_pairs(idx, pairs)
    return idx


@functools.lru_cache(maxsize=1024)
def _pair_table(support, d):
    """``table[k][a]`` is the pair ``(support[k], a)``; the basis-string keys
    of every block at these positions share these pairs."""
    return [[(pos, a) for a in range(d)] for pos in support]


def _digits(value, base, width):
    """The ``width`` base-``base`` digits of value, most significant first.

    Works on Python ints of any size and elementwise on integer arrays.
    """
    out = [0] * width
    for k in range(width - 1, -1, -1):
        value, out[k] = divmod(value, base)
    return out


def _pack(rows):
    """Integer rows packed big-endian into int64 keys, most significant first.

    The inverse of ``_digits``: with base the largest digit + 1, each key
    holds the next ``per`` digits of every row, as many as base**per <=
    2**63 - 1 allows, so the keys order the rows as their digits do.  Rows
    of width 0 have no keys.  When base**per < 2**16 the one key is uint16,
    which numpy's stable sort orders by radix sort instead of timsort.
    """
    width = rows.shape[1]
    base = int(rows.max(initial=0)) + 1
    per = 1
    while per < width and base ** (per + 1) < 2 ** 63:
        per += 1
    powers = base ** np.arange(per - 1, -1, -1, dtype=np.int64)
    dtype = np.uint16 if base ** per < 2 ** 16 else np.int64
    return [(rows[:, lo : lo + per] @ powers[max(0, lo + per - width) :])
            .astype(dtype, copy=False) for lo in range(0, width, per)]


def _slots(slots):
    # consecutive slots become a slice, so numpy indexes a view
    if slots == list(range(slots[0], slots[0] + len(slots))):
        return slice(slots[0], slots[0] + len(slots))
    return np.array(slots)


@functools.lru_cache(maxsize=1024)
def _align(first, second):
    """Union of two position tuples, and where each operand sits in it.

    Returns ``(union, fill, at_first, at_second)``: ``fill`` indexes the
    union slots the first operand leaves as identity (None if there are
    none), ``at_first`` and ``at_second`` the slots of each operand.
    """
    union = tuple(sorted(set(first).union(second)))
    slot = {pos: k for k, pos in enumerate(union)}
    own = set(first)
    fill = [slot[pos] for pos in union if pos not in own]
    return (
        union,
        _slots(fill) if fill else None,
        _slots([slot[pos] for pos in first]),
        _slots([slot[pos] for pos in second]),
    )


def _vanishes(x, y, d):
    """True when two elementary tensors, given by their ``TensorElement._masks``
    over d atoms, multiply to zero: at some shared position their nonzero
    atoms are disjoint.  ``_vanishes(x, x, d)`` asks whether x is zero.

    Both masks have the guard bit of every position they share, over the
    atoms the two have in common there.  Taking one from the lowest bit of
    each such field clears its guard exactly when the field holds no atom,
    and never borrows from the field above.
    """
    shared = x[1] & y[1]
    return (x[0] & y[0]) - (shared >> d) & shared != shared


def _block_product(first, a, second, b):
    """Every row of ``a`` (at positions ``first``) times every row of ``b``.

    Elementary tensors multiply position by position, with the identity
    wherever only one factor is explicit.  Products of sums are formed a
    bounded number of entries at a time, and rows that vanish at some
    position are dropped, so products of one-hot sums stay as small as
    the strings they share.
    """
    if len(second) > len(first):
        # the operand with more positions is copied, the other multiplied in
        first, a, second, b = second, b, first, a
    union, fill, at_a, at_b = _align(first, second)

    def times(a, b):
        if fill is None:
            rows = a.copy()
        else:
            rows = np.ones((len(a), len(union), a.shape[2]), dtype=complex)
            rows[:, at_a] = a
        rows[:, at_b] *= b
        return rows

    if len(a) == 1 == len(b):
        return union, times(a, b)
    step = max(1, PRODUCT_BLOCK_ENTRIES // (len(b) * len(union) * a.shape[2]))
    kept = []
    for i in range(0, len(a), step):
        chunk = a[i:i + step]
        rows = times(chunk.repeat(len(b), axis=0), np.tile(b, (len(chunk), 1, 1)))
        kept.append(rows[rows.any(axis=2).all(axis=1)])
    return union, np.concatenate(kept)


def _one_hot_rows(atoms, coeffs, d):
    # one row per basis string: atom atoms[r, k] at slot k, the string's
    # coefficient folded into slot 0
    count, width = atoms.shape
    rows = np.zeros((count, width, d), dtype=complex)
    r = np.arange(count)
    rows[r[:, None], np.arange(width), atoms] = 1.0
    rows[r, 0, atoms[:, 0]] = coeffs
    return rows


def _add_rows(blocks, support, rows):
    mine = blocks.get(support)
    blocks[support] = rows if mine is None else np.concatenate((mine, rows))


def _scale_rows(rows, c):
    out = rows.copy()
    out[:, 0] *= c
    return out


def _broadcast_axes(support, d, level):
    """Shapes that broadcast a block over the d**level strings of ``dense``.

    One axis per explicit position and one per run of identity positions,
    of size d**run on the string grid and 1 on the block.  Axes of size one
    are left out, so every axis doubles the strings at least and numpy's
    limit of 64 axes is never reached by an expansion that fits in memory.
    """
    grid, shape = [], []
    last = 0
    for pos in support:
        grid.extend((d ** (pos - last - 1), d))
        shape.extend((1, d))
        last = pos
    grid.append(d ** (level - last))
    shape.append(1)
    keep = [i for i, size in enumerate(grid) if size > 1]
    return [grid[i] for i in keep], [shape[i] for i in keep]


def _runs(rows):
    # a stable big-endian sort of integer rows by their packed keys: the
    # order, and where each run of equal rows starts along it
    keys = _pack(rows)
    order = np.lexsort(keys[::-1]) if keys else np.arange(len(rows))
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    return order, starts


def _kinds(words):
    # first[j]: row j is the first of its kind; kind[j]: the index of row
    # j's kind among the first rows, in index order
    order, starts = _runs(words)
    source = np.empty_like(order)
    source[order] = order[starts][np.cumsum(starts) - 1]
    first = source == np.arange(order.size)
    return first, (np.cumsum(first) - 1)[source]


def _string_bits(rows):
    # log2 of the basis strings of a block before equal ones are summed: per
    # row, the product over its positions of the nonzero atoms.  Summed in
    # log2, so a 200-fold power cannot overflow.
    counts = np.count_nonzero(rows, axis=2)
    logs = np.log2(counts, out=np.full(counts.shape, -np.inf), where=counts > 0)
    return np.logaddexp2.reduce(logs.sum(axis=1), initial=-np.inf)


def _block_strings(rows):
    """Every basis string of a block as ``(atoms, coefficients)`` arrays.

    ``atoms[i, k]`` is the atom string i fixes at the block's k-th
    position.  A row yields the nonzero entries of its Kronecker product,
    in big-endian order; with several rows, equal strings are summed in
    row order and all strings sorted big-endian.
    """
    nonzero = rows != 0
    radix = nonzero.sum(axis=2)
    if radix.max() <= 1:
        # at most one atom per position: a row is one string, or vanishes
        live = radix.all(axis=1)
        atoms = nonzero[live].argmax(axis=2)
        coeffs = rows[live].sum(axis=2).prod(axis=1)
    else:
        # a left-to-right Kronecker chain over every row at once
        row = np.arange(len(rows))
        atoms = np.zeros((len(rows), 0), dtype=np.intp)
        coeffs = np.ones(len(rows), dtype=complex)
        for k in range(rows.shape[1]):
            pick, atom = np.nonzero(nonzero[row, k])
            row = row[pick]
            atoms = np.column_stack((atoms[pick], atom))
            coeffs = coeffs[pick] * rows[row, k, atom]
    if len(rows) > 1:
        order, starts = _runs(atoms)
        atoms = atoms[order[starts]]
        coeffs = _sums(np.cumsum(starts) - 1, coeffs[order], len(atoms))
    return atoms, coeffs


def _sums(labels, values, size):
    # complex values summed per label in order, which np.add.reduceat does not do
    return np.bincount(labels, values.real, size) + 1j * np.bincount(labels, values.imag, size)


def _factor_algebra(algebra):
    if not isinstance(algebra, AtomicAlgebra):
        raise TypeError("factor_algebra must be an AtomicAlgebra")
    return algebra


def _one_string(support, row):
    """The terms of one row with at most one nonzero atom per position, as
    ``_block_strings`` and ``_expand`` give them, or None for a row with more.

    A row with a zero position has no string.  The coefficient is formed
    as numpy forms ``rows.sum(axis=2).prod(axis=1)``: each position's
    entries summed from 0, which turns a -0.0 part into 0.0, then the sums
    multiplied in position order.
    """
    pairs, values = [], []
    for pos, vec in zip(support, row.tolist()):
        atoms = [a for a, v in enumerate(vec) if v]
        if len(atoms) != 1:
            return None if atoms else {}
        pairs.append((pos, atoms[0]))
        values.append(sum(vec))
    c = math.prod(values)
    return {_index(tuple(pairs)): c} if abs(c) >= ZERO_TOL else {}


def _tensor_element(factor_algebra, scalar, blocks):
    t = _new(TensorElement)
    _set_algebra(t, factor_algebra)
    _set_scalar(t, scalar)
    _set_blocks(t, blocks)
    # terms, level and masks are filled in on first use; zero needs none
    _set_cache(t, {} if blocks or scalar else {"terms": {}, "level": 0})
    return t


class TensorElement(_Value):
    """Element of the tensor power of one atomic algebra.

    The element is stored as a sum of elementary tensors: a scalar multiple
    of the identity plus, for each tuple ``P`` of 1-based positions in
    ``_blocks``, the rows of an ``(R, len(P), d)`` array.  Row ``r`` stands
    for ``rows[r, 0] ⊗ ... ⊗ rows[r, -1]`` placed at the positions ``P``
    (a row's coefficient is folded into its first vector), with the
    identity at every other position.  Products, ``tensor``, the trace,
    product states and ``dense`` work on these factors.

    ``terms`` is the expansion over basis strings: it maps MultiIndex ->
    complex coefficient, one key per choice of a nonzero atom at each
    explicit position of a row, with equal strings summed and coefficients
    below ``ZERO_TOL`` dropped.  It is built on first access and cached;
    the scalar comes first, then each block's strings in big-endian order.
    It refuses, before building anything, an expansion of more than
    ``2**TERMS_GUARD_BITS`` strings, and so do ``==``, ``hash``,
    ``to_dict`` and ``apply``, which read it.
    Basis strings are a spanning set, not a basis, so two different term
    maps may describe the same element; semantic questions (norm,
    spectrum, ``equals``) go through the dense expansion.

    An element that is one elementary tensor, one block of one row and no
    scalar part, is the common case of a word embedding and of a product of
    two words.  It caches its position masks once, so a product of two of
    them that vanishes is one test and a fresh zero.  When the row has one
    nonzero atom at every position, ``terms`` is its one basis string, read
    from the row's Python list with the key and the coefficient bits the
    numpy expansion gives; a row with more atoms at a position, and a sum
    of rows, are expanded in numpy.

    ``level`` is the largest position of a block that is not zero.  It is
    the largest position in ``terms`` unless every string coefficient of
    that block is below ``ZERO_TOL``, as in a high tensor power of a small
    vector, whose trace and product-state values are still exact.  A
    block that sums elementary tensors may cancel, so finding the level
    expands it, behind the dense guard (``GUARD_BITS``, or the
    ``guard_bits`` of ``dense``, ``norm``, ``spectrum``, ``equals`` and
    ``apply``).
    """

    __slots__ = ("factor_algebra", "_scalar", "_blocks", "_cache")

    def __init__(self, factor_algebra, terms=()):
        d = _factor_algebra(factor_algebra).dim
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for idx, c in items:
            if not isinstance(idx, MultiIndex):
                idx = MultiIndex(idx)
            for _, atom in idx.pairs:
                if atom >= d:
                    raise ValueError(
                        "atom index %d invalid for factor dimension %d" % (atom, d)
                    )
            acc[idx] = acc.get(idx, 0j) + complex(c)
        clean = {idx: c for idx, c in acc.items() if abs(c) >= ZERO_TOL}
        grouped = {}
        for idx, c in clean.items():
            if idx.pairs:
                grouped.setdefault(idx.support, []).append((idx, c))
        blocks = {
            support: _one_hot_rows(
                np.array([[atom for _, atom in idx.pairs] for idx, _ in entries]),
                [c for _, c in entries],
                d,
            )
            for support, entries in grouped.items()
        }
        level = max((idx.level for idx in clean), default=0)
        # the key order _expand gives: the scalar, then each support's strings
        # big-endian, supports in first-seen order
        terms = {idx: c for idx, c in clean.items() if not idx.pairs}
        for entries in grouped.values():
            terms.update(sorted(entries, key=lambda entry: [atom for _, atom in entry[0].pairs]))
        _set_algebra(self, factor_algebra)
        _set_scalar(self, clean.get(MultiIndex(), 0j))
        _set_blocks(self, blocks)
        _set_cache(self, {"terms": terms, "level": level})

    @classmethod
    def scalar(cls, factor_algebra, value):
        return cls(factor_algebra, {MultiIndex(): value})

    @classmethod
    def identity(cls, factor_algebra):
        return cls.scalar(factor_algebra, 1.0)

    @property
    def terms(self):
        got = self._cache.get("terms")
        if got is None:
            got = self._cache["terms"] = self._expand()
        return got

    def _level(self, guard_bits=None):
        got = self._cache.get("level")
        if got is None:
            got = self._cache["level"] = self._top_position(guard_bits)
        return got

    level = property(_level)

    def _reach(self):
        # the last explicit position: the level, unless a sum block there cancels
        return max((support[-1] for support in self._blocks), default=0)

    def _checked_level(self, level, guard_bits=None):
        # level, by default the element's own; an explicit one past every
        # block needs no check for cancellation
        if level is None:
            return self._level(guard_bits)
        lvl = _integer(level, "level", 0)
        if lvl < self._reach() and lvl < self._level(guard_bits):
            raise ValueError("level %d below element support %d" % (lvl, self.level))
        return lvl

    def _expand(self):
        one = self._one_row()
        if one is not None:
            got = _one_string(*one)
            if got is not None:
                return got
        bits = np.logaddexp2.reduce([_string_bits(rows) for rows in self._blocks.values()],
                                    initial=0.0 if self._scalar else -math.inf)
        _guard(bits, TERMS_GUARD_BITS, None, "basis strings in .terms")
        out = {}
        if abs(self._scalar) >= ZERO_TOL:
            out[_index(())] = self._scalar
        d = self.factor_algebra.dim
        pick = itertools.repeat(list.__getitem__)
        for support, rows in self._blocks.items():
            atoms, coeffs = _block_strings(rows)
            keep = np.abs(coeffs) >= ZERO_TOL
            table = itertools.repeat(_pair_table(support, d))
            pairs = map(tuple, map(map, pick, table, atoms[keep].tolist()))
            out.update(zip(map(_index, pairs), coeffs[keep].tolist()))
        return out

    def _one_row(self):
        # (support, vectors) of an element that is one elementary tensor,
        # one block of one row with no scalar part, else None
        if not self._scalar and len(self._blocks) == 1:
            (support, rows), = self._blocks.items()
            if len(rows) == 1:
                return support, rows[0]
        return None

    def _mask(self):
        # the _masks pair of an element that is one elementary tensor, cached
        # once; () for any other element, which is as cheap to find again
        one = self._one_row()
        if one is None:
            return ()
        got = self._cache["mask"] = self._masks(one[0])
        return got

    def _masks(self, support):
        # A single-row block as two ints of (d + 1)-bit fields, the field of
        # position p at bit p * (d + 1): the bits of its nonzero atoms under a
        # guard bit d, and the guard bits alone.
        try:
            return self._cache["masks"][support]
        except KeyError:
            d = self.factor_algebra.dim
            atoms = guards = 0
            for pos, vec in zip(support, self._blocks[support][0].tolist()):
                guard = 1 << (pos * (d + 1) + d)
                atoms |= sum(guard >> (d - atom) for atom, v in enumerate(vec) if v) | guard
                guards |= guard
            got = self._cache.setdefault("masks", {})[support] = atoms, guards
            return got

    def _top_position(self, guard_bits):
        # The largest position of a block that is not zero.  A single
        # elementary tensor is zero exactly when it vanishes at some
        # position; a sum of them can cancel, so it is expanded, behind the
        # dense guard, as dense() expands it.
        top = 0
        d = self.factor_algebra.dim
        for support, rows in self._blocks.items():
            if support[-1] <= top:
                continue
            if len(rows) == 1:
                masks = self._masks(support)
                nonzero = not _vanishes(masks, masks, d)
            else:
                _guard(_string_bits(rows), GUARD_BITS, guard_bits, "basis strings in a sum block")
                nonzero = _block_strings(rows)[1].any()
            if nonzero:
                top = support[-1]
        return top

    def _check_same(self, other):
        a, b = self.factor_algebra, other.factor_algebra
        if a is not b and a != b:
            raise AlgebraMismatch("operands have factor algebras %r and %r" % (a, b))

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check_same(other)
        blocks = dict(self._blocks)
        for support, rows in other._blocks.items():
            _add_rows(blocks, support, rows)
        return _tensor_element(self.factor_algebra, self._scalar + other._scalar, blocks)

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            self._check_same(other)
            return self._times(other)
        if isinstance(other, numbers.Number):
            c = complex(other)
            blocks = {s: _scale_rows(rows, c) for s, rows in self._blocks.items()}
            return _tensor_element(self.factor_algebra, self._scalar * c, blocks)
        return NotImplemented

    __rmul__ = __mul__  # the algebra is abelian

    def _times(self, other):
        # (s + sum A)(t + sum B) = st + t A + s B + sum A B, block by block
        s, t = self._scalar, other._scalar
        d = self.factor_algebra.dim
        # two elementary tensors: a zero product needs no block loops
        x = self._cache.get("mask") or self._mask()
        y = other._cache.get("mask") or other._mask()
        if x and y and _vanishes(x, y, d):
            return _tensor_element(self.factor_algebra, s * t, {})
        blocks = {}
        for first, a in self._blocks.items():
            for second, b in other._blocks.items():
                if len(a) == 1 == len(b) and _vanishes(self._masks(first), other._masks(second), d):
                    continue
                union, rows = _block_product(first, a, second, b)
                if len(rows):
                    _add_rows(blocks, union, rows)
        if t:
            for support, rows in self._blocks.items():
                _add_rows(blocks, support, _scale_rows(rows, t))
        if s:
            for support, rows in other._blocks.items():
                _add_rows(blocks, support, _scale_rows(rows, s))
        return _tensor_element(self.factor_algebra, s * t, blocks)

    def star(self):
        blocks = {s: rows.conj() for s, rows in self._blocks.items()}
        return _tensor_element(self.factor_algebra, self._scalar.conjugate(), blocks)

    def tensor(self, other):
        """Concatenation product: other's positions start after self.level."""
        self._check_same(other)
        shift = self.level
        moved = {tuple(pos + shift for pos in s): rows for s, rows in other._blocks.items()}
        return self._times(_tensor_element(self.factor_algebra, other._scalar, moved))

    # analysis -------------------------------------------------------------

    def factor_sums(self, weights_at=None):
        """Pair every elementary tensor with a product of weight vectors.

        Returns ``(positions, value)`` per block, the scalar part first with
        no positions: value is the sum over the block's elementary tensors
        of the product over its positions of ``<x_k, weights_at(pos)>``.
        Without ``weights_at`` every weight is 1, so the value is the
        product of the factor traces.  Nothing is expanded.
        """
        out = [((), self._scalar)]
        with np.errstate(over="ignore", invalid="ignore"):
            for support, rows in self._blocks.items():
                if weights_at is None:
                    per_position = rows.sum(axis=2)
                else:
                    weights = np.array([weights_at(pos) for pos in support])
                    per_position = (rows * weights).sum(axis=2)
                out.append((support, complex(per_position.prod(axis=1).sum())))
        return out

    def dense(self, level=None, guard_bits=None):
        """Coefficient vector over all d**level atomic strings.

        String index packs positions big-endian: position 1 is the most
        significant digit.  ``level`` defaults to the element's own level and
        may not shrink below it.  A single elementary tensor is one
        left-to-right Kronecker chain over its explicit positions, a sum of
        them is scattered from its basis strings; either is broadcast over
        the identity positions.
        """
        d = self.factor_algebra.dim
        lvl = self._checked_level(level, guard_bits)
        check_guard(d, lvl, guard_bits)
        out = np.full(d ** lvl, self._scalar, dtype=complex)
        for support, rows in self._blocks.items():
            if support[-1] > lvl:
                continue  # the block is zero
            if len(rows) == 1:
                block = functools.reduce(np.kron, rows[0])
            else:
                atoms, coeffs = _block_strings(rows)
                cells = atoms @ d ** np.arange(len(support) - 1, -1, -1)
                block = _sums(cells, coeffs, d ** len(support))
            grid, shape = _broadcast_axes(support, d, lvl)
            out.reshape(grid)[...] += block.reshape(shape)
        return out

    def norm(self, guard_bits=None):
        return float(np.max(np.abs(self.dense(guard_bits=guard_bits))))

    def spectrum(self, tol=None, guard_bits=None):
        return _distinct(self.dense(guard_bits=guard_bits), _tol(tol))

    def apply(self, f, domain_check=True, guard_bits=None):
        """Functional calculus over the full atomic expansion.

        Keeps the sparse term structure when every term is fully explicit
        and f maps 0 to 0; otherwise expands densely first (guarded).
        """
        lvl = self._level(guard_bits)
        fully_explicit = all(len(i) == lvl for i in self.terms)
        if fully_explicit:
            f0 = _call_scalar(f, 0j, domain_check) if lvl > 0 else 0j
            if f0 == 0j:
                return TensorElement(
                    self.factor_algebra,
                    {i: _call_scalar(f, c, domain_check) for i, c in self.terms.items()},
                )
        vec = self.dense(guard_bits=guard_bits)
        vals = np.array([_call_scalar(f, complex(c), domain_check) for c in vec])
        return _from_dense(self.factor_algebra, vals, lvl)

    def equals(self, other, tol=None, guard_bits=None):
        if not isinstance(other, TensorElement):
            return False
        if self.factor_algebra != other.factor_algebra:
            return False
        lvl = max(self._level(guard_bits), other._level(guard_bits))
        diff = self.dense(lvl, guard_bits) - other.dense(lvl, guard_bits)
        return float(np.max(np.abs(diff))) <= _tol(tol)

    def _identity(self):
        return (self.factor_algebra, _TermMap(self.terms)), None

    def __repr__(self):
        count = sum(len(rows) for rows in self._blocks.values()) + (self._scalar != 0)
        return "TensorElement(%r, %d elementary tensors, up to position %d)" % (
            self.factor_algebra,
            count,
            self._reach(),
        )

    # serialization --------------------------------------------------------

    def to_dict(self):
        terms = []
        for idx in sorted(self.terms, key=lambda i: i.pairs):
            c = self.terms[idx]
            terms.append(
                {
                    "idx": {str(pos): atom for pos, atom in idx.pairs},
                    "c": [float(c.real), float(c.imag)],
                }
            )
        return {"dim": self.factor_algebra.dim, "terms": terms}

    @classmethod
    def from_dict(cls, data, factor_algebra=None):
        factor_algebra = _check_dim(data, factor_algebra)
        terms = []
        for entry in data["terms"]:
            idx = MultiIndex(entry["idx"])
            re, im = entry["c"]
            terms.append((idx, complex(re, im)))
        return cls(factor_algebra, terms)


# Slot setters for _index and _tensor_element: both classes refuse
# attribute assignment, and the descriptors are faster than
# object.__setattr__.
_new = object.__new__
_set_pairs = MultiIndex.pairs.__set__
_set_algebra = TensorElement.factor_algebra.__set__
_set_scalar = TensorElement._scalar.__set__
_set_blocks = TensorElement._blocks.__set__
_set_cache = TensorElement._cache.__set__


def _from_dense(factor_algebra, vec, level):
    """TensorElement with one one-hot elementary tensor per nonzero string
    of vec, the ``dense`` vector of a level of at least 1."""
    d = factor_algebra.dim
    flat = np.flatnonzero(np.abs(vec) >= ZERO_TOL)
    blocks = {}
    if flat.size:
        atoms = np.stack(_digits(flat, d, level), axis=1)
        blocks[tuple(range(1, level + 1))] = _one_hot_rows(atoms, vec[flat], d)
    return _tensor_element(factor_algebra, 0j, blocks)


# module-level operations ----------------------------------------------------


def as_tensor(x):
    """View an Element as a level-1 TensorElement (identity tail implied)."""
    if isinstance(x, TensorElement):
        return x
    if not isinstance(x, Element):
        raise TypeError("expected Element or TensorElement")
    return embed_at(x, 1)


def embed_at(x, position):
    """Place a single-factor element at the given 1-based tensor position."""
    if not isinstance(x, Element):
        raise TypeError("embed_at expects an Element")
    position = _integer(position, "tensor position", 1)
    coeffs = np.where(np.abs(x.coeffs) >= ZERO_TOL, x.coeffs, 0j)
    return _tensor_element(x.algebra, 0j, {(position,): coeffs.reshape(1, 1, -1)})


def tensor_product(a, b):
    """a tensor b; Elements are promoted to level-1 tensor elements."""
    return as_tensor(a).tensor(as_tensor(b))


def tensor_power(x, n):
    """n-fold tensor power of a single-factor or tensor element.

    Built by repeated squaring: the power of an elementary tensor is one
    elementary tensor, made with O(log n) concatenations of O(n d) work.
    """
    n = _integer(n, "tensor power", 1)
    square = as_tensor(x)
    out = None
    while True:
        if n & 1:
            out = square if out is None else out.tensor(square)
        n >>= 1
        if not n:
            return out
        square = square.tensor(square)


def truncate_to_level(x, level, guard_bits=None):
    """Dense coefficient vector of x over all d**level strings."""
    return as_tensor(x).dense(level, guard_bits)


def norm(x):
    return x.norm()


def spectrum(x, tol=None):
    return x.spectrum(tol)


def trace(x, level=None):
    """Sum of expansion coefficients.

    For tensor elements the trace is taken at ``level`` (default: the
    element's own level).  It factors: an elementary tensor with p explicit
    positions contributes the product of its factor traces times the
    d**(level - p) strings it covers, so nothing is expanded but, with no
    ``level`` given, a sum of elementary tensors at the element's last
    position, which may cancel (behind the dense guard).  A trace beyond
    the float range raises ValueError.
    """
    if isinstance(x, Element):
        return complex(np.sum(x.coeffs))
    if not isinstance(x, TensorElement):
        raise TypeError("expected Element or TensorElement")
    d = x.factor_algebra.dim
    lvl = x._checked_level(level)
    total = 0j
    for support, value in x.factor_sums():
        if support and support[-1] > lvl:
            continue  # the block is zero
        strings = d ** (lvl - len(support))
        try:
            total += value * strings
        except OverflowError:
            # the string count is beyond the float range; the product may not be
            total += _scaled(value, strings)
    if not cmath.isfinite(total):
        raise ValueError("trace at level %d is beyond the float range" % lvl)
    return total


def _scaled(c, m):
    """c * m for an int m too large for a float, rounded once (inf if too large)."""
    from fractions import Fraction

    try:
        return complex(float(Fraction(c.real) * m), float(Fraction(c.imag) * m))
    except OverflowError:
        return complex(math.inf)


def apply_function(x, f, domain_check=True):
    """Functional calculus on either element kind."""
    return x.apply(f, domain_check)
