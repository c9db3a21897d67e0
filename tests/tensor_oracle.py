"""Tensor-power arithmetic on explicit basis strings, kept as a test oracle.

An element is a dict mapping a basis string, a sorted tuple of
``(position, atom)`` pairs with 1-based positions, to a complex
coefficient; every absent position is an identity factor.  Products merge
strings pair by pair, so this is quadratic in the number of strings, but
it is short and independent of the factored implementation in
``cstar_info.algebra``.
"""

import numpy as np

ZERO_TOL = 1e-15


def _clean(terms):
    return {k: c for k, c in terms.items() if abs(c) >= ZERO_TOL}


def _merge(a, b):
    # strings fixed at a common position must agree, else the product is 0
    merged = dict(a)
    for pos, atom in b:
        if merged.setdefault(pos, atom) != atom:
            return None
    return tuple(sorted(merged.items()))


class DictTensor:
    def __init__(self, dim, terms):
        self.dim = dim
        self.terms = _clean(terms)

    @classmethod
    def scalar(cls, dim, c):
        return cls(dim, {(): complex(c)})

    @classmethod
    def embed_at(cls, coeffs, position):
        return cls(len(coeffs), {((position, i),): complex(c) for i, c in enumerate(coeffs)})

    @property
    def level(self):
        return max((k[-1][0] for k in self.terms if k), default=0)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0j) + c
        return DictTensor(self.dim, out)

    def __mul__(self, other):
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = _merge(ka, kb)
                if k is not None:
                    out[k] = out.get(k, 0j) + ca * cb
        return DictTensor(self.dim, out)

    def scale(self, c):
        return DictTensor(self.dim, {k: v * c for k, v in self.terms.items()})

    def star(self):
        return DictTensor(self.dim, {k: v.conjugate() for k, v in self.terms.items()})

    def tensor(self, other):
        shift = self.level
        moved = {tuple((p + shift, i) for p, i in k): c for k, c in other.terms.items()}
        return self * DictTensor(self.dim, moved)

    def tensor_power(self, n):
        out = self
        for _ in range(n - 1):
            out = out.tensor(self)
        return out

    def dense(self, level):
        """Coefficients over all dim**level strings, position 1 most significant."""
        out = np.zeros((self.dim,) * level, dtype=complex)
        for k, c in self.terms.items():
            cell = [slice(None)] * level
            for pos, atom in k:
                cell[pos - 1] = atom
            out[tuple(cell)] += c
        return out.ravel()

    def trace(self, level):
        return sum(c * self.dim ** (level - len(k)) for k, c in self.terms.items())

    def product_state(self, weights_at):
        total = 0j
        for k, c in self.terms.items():
            total += c * np.prod([weights_at(pos)[atom] for pos, atom in k])
        return total
