"""Finite abelian C*-algebras over an atomic basis, and their tensor powers.

An atomic basis ``e_0, ..., e_{d-1}`` consists of self-adjoint orthogonal
projections (``e_i e_j = delta_ij e_i``) that sum to the identity.  Every
element of the algebra is a coefficient vector over the atoms, products act
coefficientwise, and the norm is the largest coefficient modulus.  The
spectrum of an element is the set of its distinct coefficients.

Tensor powers are kept sparse.  A basis string fixes an atom at finitely
many 1-based positions and is implicitly the identity everywhere else, so
elements of arbitrarily high (finite) level stay cheap as long as their
support is small.  Operations that genuinely need every coefficient
(norm, spectrum, truncation to a dense vector) expand the element over all
``d**level`` atomic strings behind an explicit size guard.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

# Tolerance used by every equality / positivity / projection predicate.
EQ_TOL = 1e-9
# Sparse coefficients below this modulus are dropped after arithmetic.
ZERO_TOL = 1e-15
# Dense expansions refuse to materialize more than 2**GUARD_BITS strings.
GUARD_BITS = 24


class AlgebraMismatch(ValueError):
    """Raised when operands belong to different algebras."""


class GuardExceeded(RuntimeError):
    """Raised when a computation would exceed its size guard."""


def check_guard(dim, level, guard_bits=None):
    """Refuse dense work on more than 2**guard_bits atomic strings."""
    limit = GUARD_BITS if guard_bits is None else float(guard_bits)
    bits = level * math.log2(dim) if dim > 1 else 0.0
    if bits > limit + 1e-9:
        raise GuardExceeded(
            "dense expansion needs %d**%d strings (~2^%.1f); guard is 2^%g"
            % (dim, level, bits, limit)
        )


def _tol(tol):
    return EQ_TOL if tol is None else float(tol)


def _cluster_sorted(values, tol):
    # Greedy clustering of (real, imag)-sorted values; adjacent values closer
    # than tol collapse onto the first representative seen.
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


class AtomicAlgebra:
    """A d-dimensional abelian C*-algebra presented by its atomic basis.

    ``labels``, when given, name the atoms (the alphabet of a source);
    they take no part in arithmetic but are kept for reporting.
    """

    __slots__ = ("dim", "labels")

    def __init__(self, dim, labels=None):
        dim = int(dim)
        if dim < 1:
            raise ValueError("algebra dimension must be >= 1")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != dim:
                raise ValueError("need exactly one label per atom")
            if len(set(labels)) != dim:
                raise ValueError("atom labels must be distinct")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("AtomicAlgebra is immutable")

    def __eq__(self, other):
        if not isinstance(other, AtomicAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.labels == other.labels

    def __hash__(self):
        return hash((self.dim, self.labels))

    def __repr__(self):
        if self.labels is None:
            return "AtomicAlgebra(%d)" % self.dim
        return "AtomicAlgebra(%d, labels=%r)" % (self.dim, self.labels)

    def element(self, coeffs):
        return Element(self, coeffs)

    def atom(self, i):
        """The atomic projection e_i."""
        i = int(i)
        if not 0 <= i < self.dim:
            raise ValueError("atom index out of range")
        coeffs = np.zeros(self.dim, dtype=complex)
        coeffs[i] = 1.0
        return Element(self, coeffs)

    def identity(self):
        return Element(self, np.ones(self.dim, dtype=complex))

    def zero(self):
        return Element(self, np.zeros(self.dim, dtype=complex))


class Element:
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

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def _check_same(self, other):
        if self.algebra != other.algebra:
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

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return Element(self.algebra, self.coeffs * complex(other))
        return NotImplemented

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

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.algebra, self.coeffs.tobytes()))

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
        dim = int(data["dim"])
        if algebra is None:
            algebra = AtomicAlgebra(dim)
        elif algebra.dim != dim:
            raise AlgebraMismatch("serialized dim %d != algebra dim %d" % (dim, algebra.dim))
        coeffs = [complex(re, im) for re, im in data["coeffs"]]
        return cls(algebra, coeffs)


class MultiIndex:
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
            pos = int(pos)
            idx = int(idx)
            if pos < 1:
                raise ValueError("tensor positions are 1-based")
            if idx < 0:
                raise ValueError("atom indices are 0-based and non-negative")
            if pos in seen:
                raise ValueError("position collision at %d" % pos)
            seen.add(pos)
            pairs.append((pos, idx))
        pairs.sort()
        object.__setattr__(self, "pairs", tuple(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndex is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, MultiIndex):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __repr__(self):
        return "MultiIndex(%r)" % (dict(self.pairs),)


def _merge_indices(a, b):
    # Product of basis strings: positions fixed by both must agree, otherwise
    # the product annihilates; identity factors absorb anything.
    merged = dict(a.pairs)
    for pos, idx in b.pairs:
        cur = merged.get(pos)
        if cur is None:
            merged[pos] = idx
        elif cur != idx:
            return None
    return MultiIndex(merged)


class TensorElement:
    """Sparse element of the tensor power of one atomic algebra.

    ``terms`` maps MultiIndex -> complex coefficient; the element is the sum
    of coefficient * basis string.  Basis strings are a spanning set, not a
    basis, so two different term maps may describe the same element; semantic
    questions (norm, spectrum, equality) go through the dense expansion.
    """

    __slots__ = ("factor_algebra", "terms", "level")

    def __init__(self, factor_algebra, terms=()):
        if not isinstance(factor_algebra, AtomicAlgebra):
            raise TypeError("factor_algebra must be an AtomicAlgebra")
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for idx, c in items:
            if not isinstance(idx, MultiIndex):
                idx = MultiIndex(idx)
            for _, atom in idx.pairs:
                if atom >= factor_algebra.dim:
                    raise ValueError(
                        "atom index %d invalid for factor dimension %d"
                        % (atom, factor_algebra.dim)
                    )
            acc[idx] = acc.get(idx, 0j) + complex(c)
        clean = {idx: c for idx, c in acc.items() if abs(c) >= ZERO_TOL}
        object.__setattr__(self, "factor_algebra", factor_algebra)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "level", max((i.level for i in clean), default=0))

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    @classmethod
    def scalar(cls, factor_algebra, value):
        return cls(factor_algebra, {MultiIndex(): value})

    @classmethod
    def identity(cls, factor_algebra):
        return cls.scalar(factor_algebra, 1.0)

    def _check_same(self, other):
        if self.factor_algebra != other.factor_algebra:
            raise AlgebraMismatch(
                "operands have factor algebras %r and %r"
                % (self.factor_algebra, other.factor_algebra)
            )

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check_same(other)
        merged = dict(self.terms)
        for idx, c in other.terms.items():
            merged[idx] = merged.get(idx, 0j) + c
        return TensorElement(self.factor_algebra, merged)

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            c = complex(other)
            return TensorElement(
                self.factor_algebra, {i: v * c for i, v in self.terms.items()}
            )
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check_same(other)
        out = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                im = _merge_indices(ia, ib)
                if im is not None:
                    out[im] = out.get(im, 0j) + ca * cb
        return TensorElement(self.factor_algebra, out)

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self * other
        return NotImplemented

    def star(self):
        return TensorElement(
            self.factor_algebra, {i: c.conjugate() for i, c in self.terms.items()}
        )

    def tensor(self, other):
        """Concatenation product: other's positions start after self.level."""
        self._check_same(other)
        shift = self.level
        out = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                idx = _merge_indices(ia, ib.shifted(shift))
                out[idx] = out.get(idx, 0j) + ca * cb
        return TensorElement(self.factor_algebra, out)

    # analysis -------------------------------------------------------------

    def dense(self, level=None, guard_bits=None):
        """Coefficient vector over all d**level atomic strings.

        String index packs positions big-endian: position 1 is the most
        significant digit.  ``level`` defaults to the element's own level and
        may not shrink below it.
        """
        d = self.factor_algebra.dim
        lvl = self.level if level is None else int(level)
        if lvl < self.level:
            raise ValueError("level %d below element support %d" % (lvl, self.level))
        check_guard(d, lvl, guard_bits)
        out = np.zeros(d ** lvl, dtype=complex)
        if not self.terms:
            return out
        strides = [d ** (lvl - pos) for pos in range(1, lvl + 1)]
        for idx, c in self.terms.items():
            base = 0
            free = []
            explicit = dict(idx.pairs)
            for pos in range(1, lvl + 1):
                atom = explicit.get(pos)
                if atom is None:
                    free.append(strides[pos - 1])
                else:
                    base += atom * strides[pos - 1]
            cells = np.array([base], dtype=np.int64)
            for stride in free:
                cells = (cells[:, None] + np.arange(d, dtype=np.int64) * stride).ravel()
            out[cells] += c
        return out

    def norm(self, guard_bits=None):
        if not self.terms:
            return 0.0
        return float(np.max(np.abs(self.dense(guard_bits=guard_bits))))

    def spectrum(self, tol=None, guard_bits=None):
        return _distinct(self.dense(guard_bits=guard_bits), _tol(tol))

    def apply(self, f, domain_check=True, guard_bits=None):
        """Functional calculus over the full atomic expansion.

        Keeps the sparse term structure when every term is fully explicit
        and f maps 0 to 0; otherwise expands densely first (guarded).
        """
        lvl = self.level
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
        lvl = max(self.level, other.level)
        diff = self.dense(lvl, guard_bits) - other.dense(lvl, guard_bits)
        if diff.size == 0:
            return True
        return float(np.max(np.abs(diff))) <= _tol(tol)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.factor_algebra == other.factor_algebra and self.terms == other.terms

    def __hash__(self):
        return hash((self.factor_algebra, frozenset(self.terms.items())))

    def __repr__(self):
        return "TensorElement(%r, %d terms, level %d)" % (
            self.factor_algebra,
            len(self.terms),
            self.level,
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
        dim = int(data["dim"])
        if factor_algebra is None:
            factor_algebra = AtomicAlgebra(dim)
        elif factor_algebra.dim != dim:
            raise AlgebraMismatch(
                "serialized dim %d != algebra dim %d" % (dim, factor_algebra.dim)
            )
        terms = []
        for entry in data["terms"]:
            idx = MultiIndex({int(pos): atom for pos, atom in entry["idx"].items()})
            re, im = entry["c"]
            terms.append((idx, complex(re, im)))
        return cls(factor_algebra, terms)


def _from_dense(factor_algebra, vec, level):
    """TensorElement with one fully explicit term per nonzero string."""
    d = factor_algebra.dim
    vec = np.asarray(vec)
    if vec.shape != (d ** level,):
        raise ValueError("dense vector has wrong length for level %d" % level)
    terms = {}
    for flat in np.flatnonzero(np.abs(vec) >= ZERO_TOL):
        digits = []
        rest = int(flat)
        for pos in range(level, 0, -1):
            rest, atom = divmod(rest, d)
            digits.append((pos, atom))
        terms[MultiIndex(digits)] = complex(vec[flat])
    return TensorElement(factor_algebra, terms)


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
    position = int(position)
    if position < 1:
        raise ValueError("tensor positions are 1-based")
    terms = {
        MultiIndex({position: i}): c
        for i, c in enumerate(x.coeffs)
        if abs(c) >= ZERO_TOL
    }
    return TensorElement(x.algebra, terms)


def tensor_product(a, b):
    """a tensor b; Elements are promoted to level-1 tensor elements."""
    return as_tensor(a).tensor(as_tensor(b))


def tensor_power(x, n):
    """n-fold tensor power of a single-factor or tensor element."""
    n = int(n)
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    t = as_tensor(x)
    out = t
    for _ in range(n - 1):
        out = out.tensor(t)
    return out


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
    element's own level); each term covers d**(level - explicit positions)
    strings, so no dense expansion is needed.  A trace beyond the float
    range raises ValueError.
    """
    if isinstance(x, Element):
        return complex(np.sum(x.coeffs))
    if not isinstance(x, TensorElement):
        raise TypeError("expected Element or TensorElement")
    d = x.factor_algebra.dim
    lvl = x.level if level is None else int(level)
    if lvl < x.level:
        raise ValueError("level %d below element support %d" % (lvl, x.level))
    total = 0j
    for idx, c in x.terms.items():
        strings = d ** (lvl - len(idx))
        try:
            total += c * strings
        except OverflowError:
            # the string count is beyond the float range; the product may not be
            total += _scaled(c, strings)
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
