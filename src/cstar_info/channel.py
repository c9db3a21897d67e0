"""Discrete memoryless channels: joint states, classification, capacity, coding.

A channel from an m-symbol input to an n-symbol output is a row-stochastic
m x n matrix ``matrix[i][j] = C(y_j | x_i)``, read as the unital positive
map that pulls output observables back to input observables.  Together with
an input state it induces the joint state on the pair algebra whose atoms
are (output, input) pairs, indexed ``a = i_out * m + j_in``.

Block-length-k objects live on the k-fold tensor power of the pair algebra;
their weights are Kronecker powers of the level-1 joint weights, so input
strings stay independent across slots.

The random-coding experiment draws ``r_k = floor(2**(k R))`` codewords iid
from the k-fold input state (repeats allowed), decodes each output string to
the codeword of maximal likelihood (ties to the lowest index), and measures
how far the block channel sits from the induced lossless decoder channel:
the mean total-variation style deviation and the decoding error both shrink
as k grows whenever R is below capacity.  A repeated codeword loses every
tie to its first occurrence, so a trial decodes over the u <= r distinct
codewords only and copies their sums back to the repeats.

The block channel is the k-fold tensor power of the channel, so a
likelihood is the product of two half powers, L(y) = A(y_head) B(y_tail),
over the first ceil(k/2) and the last floor(k/2) output symbols.  A trial
decodes by an exact max-product over the half tables of the H distinct
heads and the distinct tails: the words of a head share its A, and
rounding is monotone, so per head and tail string it keeps the greatest B,
the lowest word attaining it and the next lower B, then takes each
string's greatest product over the heads.  Only a string where a head's
next lower B rounds to the same product forms its column over all u
words.  Decisions and likelihoods are those of the full u x n**k table bit
for bit, and each codeword's mass adds the likelihoods it wins in string
order.  The uniform-row gap of a codeword that owns no output string
depends only on its type, its count t_a of each symbol a, so it is
summed once per type over that type's n**k likelihoods, formed from its
half tables as in the decoding pass.  ``STREAM_BLOCK_ENTRIES`` only
bounds the size of a piece of either pass, so a trial's memory is the
half tables and one piece, never u * n**k; no result depends on it.

The dense decoder (``build_code_and_decoder``) forms the r x n**k rows as
one product of the half tables, fills and divides one decoder table in
place, then drops the rows before ``LosslessChannel`` copies the decoder:
it peaks at about twice the table.
"""

from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    EQ_TOL,
    AtomicAlgebra,
    Element,
    TensorElement,
    _Frozen,
    _Value,
    _guard,
    _integer,
    _kinds,
    _positive,
    _real,
    _runs,
    _tol,
    check_guard,
    tensor_power,
)
from .information import _entropy_bits
from .probability import ProductState, State

# A coding trial is counted as r * n**k likelihoods, a bound on its work;
# the guard bounds that count at 2**(guard + 2).
EXPERIMENT_GUARD_BITS = 24
# Coding trials work in pieces of at most this many entries (one output
# string when the codewords, or their distinct heads, alone are more).
STREAM_BLOCK_ENTRIES = 2 ** 18
# Codebooks over at most this many inputs, and with at least as many draws
# per input, are drawn by counting thresholds rather than by binary search.
COUNT_DRAW_INPUTS = 64
# Shared by the dense decoder and the streamed trial.
_ZERO_MASS = "decision block with zero mass; decoder row set to uniform"


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver stops short of its tolerance."""


class Channel(_Value):
    """Row-stochastic channel matrix, input-major: matrix[i][j] = C(y_j | x_i)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol=None):
        t = _tol(tol)
        mat = np.array(matrix, dtype=float)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("channel matrix must be a nonempty 2-d array")
        if not np.all(np.isfinite(mat)):
            raise ValueError("channel probabilities must be finite")
        if float(np.min(mat)) < -t:
            raise ValueError("channel probabilities must be nonnegative")
        with np.errstate(over="ignore"):  # a row that overflows is refused below
            sums = mat.sum(axis=1)
        if float(np.max(np.abs(sums - 1.0))) > t:
            raise ValueError("channel rows must sum to 1")
        if float(np.min(mat)) < 0.0:  # entries the tolerance admits below zero
            mat[mat < 0.0] = 0.0
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def input_dim(self):
        return self.matrix.shape[0]

    @property
    def output_dim(self):
        return self.matrix.shape[1]

    def input_algebra(self):
        return AtomicAlgebra(self.input_dim)

    def output_algebra(self):
        return AtomicAlgebra(self.output_dim)

    def _identity(self):
        return self.matrix.shape, self.matrix

    def __repr__(self):
        return "Channel(%d -> %d)" % (self.input_dim, self.output_dim)

    def to_dict(self):
        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "matrix": [[float(v) for v in row] for row in self.matrix],
        }

    @classmethod
    def from_dict(cls, data):
        try:
            mat = np.array(data["matrix"], dtype=float)
            if mat.shape != tuple(_integer(data[key], key) for key in ("input_dim", "output_dim")):
                raise ValueError("channel matrix shape disagrees with declared dims")
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError("a channel is an object of input_dim, output_dim and matrix (%r)" % exc)
        return cls(mat)


def bsc(p):
    """Binary symmetric channel with crossover probability p."""
    p = _real(p, "crossover probability", "in [0, 1]", 0.0, 1.0)
    return Channel([[1.0 - p, p], [p, 1.0 - p]])


def bec(p):
    """Binary erasure channel: outputs are (0, erasure, 1)."""
    p = _real(p, "erasure probability", "in [0, 1]", 0.0, 1.0)
    return Channel([[1.0 - p, p, 0.0], [0.0, p, 1.0 - p]])


def identity_channel(d):
    return Channel(np.eye(_integer(d, "d", 1)))


def useless_channel(row):
    """Every input produces the same output distribution."""
    row = np.asarray(row, dtype=float)
    return Channel(np.tile(row, (row.size, 1)))


def apply_channel(channel, y):
    """Pull an output observable back to the input algebra."""
    if not isinstance(y, Element):
        raise TypeError("apply_channel expects a single-factor Element")
    if y.algebra.dim != channel.output_dim:
        raise ValueError(
            "element dim %d, channel output dim %d" % (y.algebra.dim, channel.output_dim)
        )
    return Element(channel.input_algebra(), channel.matrix @ y.coeffs)


def _check_input(channel, omega):
    if omega.algebra.dim != channel.input_dim:
        raise ValueError(
            "state dim %d does not match channel input dim %d"
            % (omega.algebra.dim, channel.input_dim)
        )


def push_state(channel, omega):
    """Image of an input state under the channel."""
    _check_input(channel, omega)
    # two inputs each EQ_TOL off give a sum up to 2 EQ_TOL + EQ_TOL**2 off
    return State(channel.output_algebra(), omega.weights @ channel.matrix, tol=3 * EQ_TOL)


# joint states -----------------------------------------------------------------


class JointState(_Frozen):
    """Input-output joint state at block length ``level`` on the pair algebra.

    It is the iid product of the level-1 pair state, which is all it holds;
    ``weights`` and the marginals expand it behind the dense-expansion guard.
    """

    __slots__ = ("pair_algebra", "input_state", "level", "pair_state")

    def __init__(self, channel, input_state, level=1):
        level = _integer(level, "block length", 1)
        _check_input(channel, input_state)
        level_one = input_state.weights[:, None] * channel.matrix  # (m, n)
        pair_algebra = AtomicAlgebra(channel.output_dim * channel.input_dim)
        object.__setattr__(self, "pair_algebra", pair_algebra)
        object.__setattr__(self, "input_state", input_state)
        object.__setattr__(self, "level", level)
        pair_state = State(pair_algebra, level_one.T.ravel(), tol=3 * EQ_TOL)  # as push_state
        object.__setattr__(self, "pair_state", pair_state)

    def __call__(self, x):
        # the last explicit position bounds the level and costs nothing
        if isinstance(x, TensorElement) and x._reach() > self.level and x.level > self.level:
            raise ValueError("element level %d exceeds block length %d" % (x.level, self.level))
        if isinstance(x, Element):
            return self.pair_state(x)
        return ProductState.iid(self.pair_state)(x)

    def _power(self, factor):
        # left-to-right Kronecker chain of k level-1 factors, strings
        # big-endian on every axis, behind the dense guard
        check_guard(factor.size, self.level)
        return functools.reduce(np.kron, [factor] * self.level)

    @property
    def weights(self):
        """``weights[jvec, ivec]``: probability of input string jvec, output string ivec."""
        m = self.input_state.algebra.dim
        # pair atom a = i_out * m + j_in, so the level-1 joint matrix is its transpose
        return self._power(self.pair_state.weights.reshape(-1, m).T)

    def marginal_input(self):
        """Input-string marginal: the level-k power of the input state."""
        return self._power(self.input_state.weights)

    def marginal_output(self):
        m = self.input_state.algebra.dim
        return self._power(self.pair_state.weights.reshape(-1, m).sum(axis=1))

    def __repr__(self):
        return "JointState(level=%d, pairs=%d)" % (self.level, self.pair_algebra.dim)


class JointResult(NamedTuple):
    state: JointState
    observable: TensorElement
    density: TensorElement


def joint(channel, omega, k=1):
    """Joint state, output observable, and density at block length k.

    The observable carries coefficient ``C(y|x)`` on each pair string, the
    density carries the joint weight, and ``trace(density * z)`` at level k
    reproduces the joint state of z.  Both are single elementary tensors;
    only their expansions over the (n m)**k pair strings are guarded.
    """
    js = JointState(channel, omega, k)
    pair = js.pair_algebra
    observable = tensor_power(Element(pair, channel.matrix.T.ravel()), k)
    density = tensor_power(Element(pair, js.pair_state.weights), k)
    return JointResult(js, observable, density)


# classification -----------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Channel kind plus, for lossless channels, the decoding assignment.

    ``assignment[j]`` is the unique input index that can produce output j.
    """

    kind: str
    assignment: tuple = None

    def blocks(self):
        if self.assignment is None:
            return None
        out = {}
        for j, i in enumerate(self.assignment):
            out.setdefault(i, []).append(j)
        return {i: tuple(v) for i, v in out.items()}


def classify(channel, omega=None, tol=None, rank_tol=1e-8):
    """Classify a channel as useless, lossless, or generic.

    Useless means rank 1: every input produces one fixed output distribution,
    so input and output are independent under any input state and no
    information flows.  Useless takes precedence over lossless (a one-input
    channel is trivially both).  Lossless requires every output column to
    have exactly one positive entry, which induces the decoding partition.
    """
    t = _tol(tol)
    rank_tol = _real(rank_tol, "rank_tol", "a finite real number >= 0", 0.0)
    mat = channel.matrix
    if min(mat.shape) == 1:
        rank_one = True
    else:
        s = np.linalg.svd(mat, compute_uv=False)
        rank_one = s[1] <= rank_tol * s[0]
    if rank_one:
        if omega is not None:
            _verify_useless_independence(channel, omega, t)
        return Classification("useless")
    assignment = []
    for j in range(channel.output_dim):
        rows = np.flatnonzero(mat[:, j] > t)
        if rows.size != 1:
            return Classification("generic")
        assignment.append(int(rows[0]))
    return Classification("lossless", tuple(assignment))


def _verify_useless_independence(channel, omega, tol):
    # For a rank-1 channel input and output must be independent: the
    # level-1 joint table is the product of its margins.
    _check_input(channel, omega)
    table = omega.weights[:, None] * channel.matrix
    margins = np.outer(table.sum(axis=1), table.sum(axis=0))
    if np.any(np.abs(table - margins) > max(tol, 1e-9)):
        warnings.warn("rank-1 channel failed the joint independence check")


class InfoMetrics(NamedTuple):
    h_input: float
    h_output: float
    h_input_given_output: float
    mutual_information: float


def info_metrics(channel, omega):
    """Input/output entropies, equivocation, and mutual information (bits)."""
    _check_input(channel, omega)
    w = omega.weights
    joint_w = w[:, None] * channel.matrix  # (m, n)
    q = joint_w.sum(axis=0)
    h_in = _entropy_bits(w)
    h_out = _entropy_bits(q)
    h_cond = 0.0
    for j in range(channel.output_dim):
        if q[j] > 0.0:
            h_cond += q[j] * _entropy_bits(joint_w[:, j] / q[j])
    return InfoMetrics(
        h_input=h_in,
        h_output=h_out,
        h_input_given_output=float(h_cond),
        mutual_information=float(h_in - h_cond),
    )


class CapacityResult(NamedTuple):
    capacity: float
    optimal_input: State
    iterations: int
    gap: float


def capacity(channel, tol=1e-9, max_iter=10000):
    """Channel capacity in bits via Blahut-Arimoto ascent.

    Each iteration forms the output law q = W^T p and the divergences
    d_i = D(W_i || q) = h_i - sum_j W_ij log2 q_j, where h_i sums
    W_ij log2 W_ij over the positive entries of row i.  Then p . d <= C <=
    max_i d_i; the ascent stops when that gap drops below tol and raises
    ConvergenceError (reporting the gap) otherwise.

    A step is twelve numpy calls on preallocated arrays.  At the sizes of
    a desk-scale channel (tens of inputs and outputs) their cost is call
    overhead rather than arithmetic, so the loop calls ufuncs and bound
    methods directly, with positional outputs and no dispatch.
    """
    tol = _real(tol, "tol", "a finite real number >= 0", 0.0)
    max_iter = _integer(max_iter, "max_iter", 1)
    # Output columns without mass carry nothing and leave the products.
    mat = np.ascontiguousarray(channel.matrix[:, channel.matrix.any(axis=0)])
    mat_t = np.ascontiguousarray(mat.T)
    h = (mat * np.log2(mat, out=np.zeros_like(mat), where=mat > 0.0)).sum(axis=1)
    # A q_j that underflows to 0 is read as the least positive float, which
    # keeps every d_i finite and p . d a lower bound.
    least = np.finfo(float).smallest_subnormal
    m, n = mat.shape
    p = np.full(m, 1.0 / m)
    log_q = np.empty(n)
    d = np.empty(m)
    output_law, divergences, lower_bound = mat_t.dot, mat.dot, p.dot
    clamp, log2, exp2 = np.maximum, np.log2, np.exp2
    subtract, multiply, divide = np.subtract, np.multiply, np.divide
    top, total = d.argmax, np.add.reduce
    gap = np.inf
    for iteration in range(1, max_iter + 1):
        output_law(p, log_q)
        clamp(log_q, least, out=log_q)  # a third positional argument is deprecated
        log2(log_q, log_q)
        divergences(log_q, d)
        subtract(h, d, d)
        lower = lower_bound(d)
        upper = d[top()]  # the maximum, read where argmax finds it
        gap = float(upper - lower)
        if gap <= tol:
            return CapacityResult(
                capacity=float(max(lower, 0.0)),
                optimal_input=State(channel.input_algebra(), p),
                iterations=iteration,
                gap=gap,
            )
        subtract(d, upper, d)
        exp2(d, d)
        multiply(p, d, p)
        divide(p, total(p), p)
    raise ConvergenceError(
        "Blahut-Arimoto gap %.3e still above tol %.3e after %d iterations"
        % (gap, tol, max_iter)
    )


# random coding ------------------------------------------------------------------


class LosslessChannel(_Value):
    """Decoder channel induced by a codebook: block rows renormalized on
    their decision sets.

    ``decision[y]`` is the codeword index each output string decodes to;
    ``matrix`` is r x n**k, one row per codeword.
    """

    __slots__ = ("matrix", "decision")

    def __init__(self, matrix, decision):
        mat = Channel(matrix).matrix  # a checked, read-only copy
        if len(decision) != mat.shape[1]:
            raise ValueError("need one decision per output string")
        decision = tuple(map(operator.index, decision))  # a float is refused, not truncated
        if any(not 0 <= i < mat.shape[0] for i in decision):
            raise ValueError("decision indices out of range")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "decision", decision)

    @property
    def codebook_size(self):
        return self.matrix.shape[0]

    def blocks(self):
        out = [[] for _ in range(self.codebook_size)]
        for y, i in enumerate(self.decision):
            out[i].append(y)
        return tuple(tuple(b) for b in out)

    def as_channel(self):
        return Channel(self.matrix)

    def _identity(self):
        return self.decision, self.matrix

    def __repr__(self):
        return "LosslessChannel(%d codewords -> %d strings)" % self.matrix.shape


def _codebook_size(k, rate, m, n, guard_bits):
    """The floor(2**(k rate)) codewords of a trial, refused by the work
    guard before they are counted, and when they outnumber the m**k input
    strings."""
    rate = _positive(rate, "rate")
    span = float(min(k, 2 ** 1000))  # any longer block is refused all the same
    bits = span * rate
    if bits < 1:
        raise ValueError("rate %g gives fewer than 2 codewords at block length %d" % (rate, k))
    strings = span * np.log2(n)
    limit = _guard(strings, EXPERIMENT_GUARD_BITS, guard_bits,
                   "output strings per trial, block length %d over %d symbols", k, n)
    # log2 of the size as counted, while 2**bits is a float
    size_bits = np.log2(np.floor(2.0 ** bits)) if bits < 1024 else bits
    _guard(size_bits + strings, limit + 2, None,
           "likelihoods per trial, 2^%.5g codewords times %d**%d strings", size_bits, n, k)
    r = int(np.floor(2.0 ** bits))
    if r > m ** k:
        raise ValueError("codebook of %d words cannot fit %d**%d input strings" % (r, m, k))
    return r


def _sample_codebook(rng, weights, k, r):
    """Plain iid draws, bit for bit ``rng.choice(m, (r, k), p=weights /
    weights.sum())`` as int64.

    Repeated codewords are allowed, as in the classical random-coding
    argument.  A repeated row loses every argmax tie, so its decision block
    is empty and the decoder falls back to a uniform row.

    Like ``choice``, draws u = ``rng.random((r, k))`` and takes the number
    of entries of the normalised cumulative weights at or below each u (its
    last entry is 1 > u).  ``choice`` finds that number by binary search;
    with few inputs and enough draws, one comparison pass per threshold
    finds it faster.
    """
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    u = rng.random((r, k))
    if cdf.size > COUNT_DRAW_INPUTS or u.size < COUNT_DRAW_INPUTS * cdf.size:
        return cdf.searchsorted(u, side="right").astype(np.int64, copy=False)
    count = np.zeros(u.shape, dtype=np.uint8)
    for threshold in cdf[:-1].tolist():
        count += u >= threshold
    return count.astype(np.int64)


def _half_table(matrix, parts):
    # Row i is part i's likelihood (a run of codeword symbols) for every
    # output string of its length, each a product over the symbols left to
    # right: columns, one per output prefix, grow by one output symbol per
    # symbol, big-endian.  The block channel is the k-fold tensor power of
    # the channel, so a word's likelihood is L(y) = A(y_head) B(y_tail), the
    # product of the tables over its first ceil(k/2) and last floor(k/2)
    # symbols: every likelihood of a trial is formed from these two tables.
    columns = np.ones((1, len(parts)))
    for symbols in parts.T:
        factor = np.ascontiguousarray(matrix[symbols].T)
        columns = (columns[:, None, :] * factor[None, :, :]).reshape(-1, len(parts))
    return columns.T


def _block_rows(matrix, codebook):
    # Row j is the block channel C^k conditioned on codeword j; output strings
    # are packed big-endian, matching the dense() ordering of tensor elements.
    # The rows are one product of the half tables, laid out codeword-fastest
    # like both tables, so the reshape is a view.
    half = (codebook.shape[1] + 1) // 2
    heads = _half_table(matrix, codebook[:, :half])
    tails = _half_table(matrix, codebook[:, half:])
    return (heads[:, :, None] * tails[:, None, :]).reshape(len(codebook), -1)


def _decoder_from_rows(rows):
    # Maximum-likelihood decision per output string, ties to the lowest
    # codeword index; decoder rows are renormalized restrictions.  The
    # decoder is one table beside the rows, filled and divided in place; it
    # is C-ordered because the last bits of its row sums, the masses, depend
    # on the layout.
    r, size = rows.shape
    decision = np.argmax(rows, axis=0)
    strings = np.arange(size)
    decoder = np.zeros(rows.shape)
    decoder[decision, strings] = rows[decision, strings]
    masses = decoder.sum(axis=1)
    empty = masses <= 0.0
    if np.any(empty):
        warnings.warn(_ZERO_MASS)
        # a row without mass is uniform on the strings it owns, or on every
        # string when it owns none
        owned = np.bincount(decision, minlength=r)
        lost = empty[decision]
        decoder[decision[lost], strings[lost]] = 1.0 / owned[decision[lost]]
        decoder[empty & (owned == 0)] = 1.0 / size
    np.divide(decoder, masses[:, None], out=decoder, where=~empty[:, None])
    return decision, decoder, masses


def _head_tops(tails, tail, head, h):
    # Per distinct head and tail string, over the head's words: the greatest
    # tail likelihood top, the lowest word attaining it, and the greatest
    # below it, second (0 without one).  In chunks of whole heads.
    nb = tails.shape[1]
    top, second = np.empty((h, nb)), np.empty((h, nb))
    top_word = np.empty((h, nb), dtype=np.int64)
    order = np.argsort(head, kind="stable")  # by head, each in index order
    bounds = np.concatenate(([0], np.cumsum(np.bincount(head, minlength=h))))
    lo = 0
    while lo < h:
        fit = np.searchsorted(bounds, bounds[lo] + STREAM_BLOCK_ENTRIES // nb, side="right") - 1
        hi = min(h, max(lo + 1, int(fit)))
        words = order[bounds[lo] : bounds[hi]]
        starts = bounds[lo:hi] - bounds[lo]
        block = tails[tail[words]]
        top[lo:hi] = np.maximum.reduceat(block, starts)
        at = block == np.repeat(top[lo:hi], np.diff(bounds[lo : hi + 1]), axis=0)
        top_word[lo:hi] = words[np.minimum.reduceat(
            np.where(at, np.arange(words.size)[:, None], words.size), starts)]
        second[lo:hi] = np.maximum.reduceat(np.where(at, 0.0, block), starts)
        lo = hi
    return top, top_word, second


def _run_winners(heads, top, top_word, second, u):
    # Best likelihood and winner per string of a run, heads against tail
    # strings, and the strings whose column must be formed.
    products = heads[:, :, None] * top[:, None, :]
    best = products.max(axis=0)
    winner = np.minimum.reduce(np.broadcast_to(top_word[:, None, :], products.shape),
                               axis=0, where=products == best, initial=u)
    winner[best == 0.0] = 0  # every likelihood is 0
    # fl(A second) <= fl(A top) <= best, with equality only for a tied head
    np.multiply(heads[:, :, None], second[:, None, :], out=products)
    return winner, best, (products.max(axis=0) == best) & (best > 0.0)


def _half_tables(matrix, words):
    # yields heads, head, tails, tail: the half tables over the distinct
    # heads and tails of the words, in sorted order, and each word's row in
    # them; no decision or sum depends on the order of the rows
    for part in np.split(words, [(words.shape[1] + 1) // 2], axis=1):
        order, starts = _runs(part)
        row = np.empty_like(order)
        row[order] = np.cumsum(starts) - 1
        yield _half_table(matrix, part[order[starts]])
        yield row


def _decisions(matrix, words):
    """Maximum-likelihood decisions over distinct codewords, streamed.

    Yields ``(winner, likelihood, redone)`` per run of output strings, in
    string order: for each string, its winning word (the lowest index of
    greatest likelihood), that likelihood, and whether its whole column was
    formed.

    With a string split as y = (a, b) at ceil(k/2), word j's likelihood is
    fl(A[h_j, a] B[t_j, b]), where A and B are the half tables over the
    distinct heads h and tails t.  Rounding is monotone, so over the words
    of head h the greatest is fl(A[h, a] top[h, b]) with top the greatest B
    among them, and the lowest word attaining top wins the head.  A lower B
    of a head can round to the same product only if the next lower one,
    ``second``, does; only such strings form their column over every word.
    """
    u = words.shape[0]
    heads, head, tails, tail = _half_tables(matrix, words)
    h, nb = heads.shape[0], tails.shape[1]
    top, top_word, second = _head_tops(tails, tail, head, h)
    # A run has at most STREAM_BLOCK_ENTRIES products over the h heads: whole
    # rows of tail strings under as many head strings as fit, or one head
    # string and as many tail strings as fit (at least one; then h * cols
    # is above half the bound, so rows is 1).
    cols = min(nb, max(1, STREAM_BLOCK_ENTRIES // h))
    rows = max(1, STREAM_BLOCK_ENTRIES // (h * cols))
    per_column = max(1, STREAM_BLOCK_ENTRIES // u)
    for a0 in range(0, heads.shape[1], rows):
        for b0 in range(0, nb, cols):
            b = slice(b0, b0 + cols)
            winner, best, redone = _run_winners(heads[:, a0 : a0 + rows], top[:, b],
                                                top_word[:, b], second[:, b], u)
            width = best.shape[1]
            redo = np.flatnonzero(redone)
            for i in range(0, redo.size, per_column):
                y = redo[i : i + per_column]
                column = heads[head[:, None], a0 + y // width] * tails[tail[:, None], b0 + y % width]
                winner.flat[y] = np.argmax(column, axis=0)
            yield winner.ravel(), best.ravel(), redone.ravel()


def _uniform_gaps(matrix, types):
    # sum_y |L(y) - n**-k| for each row of `types`, a sorted word, over its
    # n**k likelihoods fl(A B) from the half tables, as in the ML pass.  A
    # (type, head string) row sums its whole contiguous row of tail strings,
    # which numpy sums pairwise, in pieces of at most STREAM_BLOCK_ENTRIES
    # products (at least one row), then each type sums its head strings'
    # rows: no sum depends on the cut.
    (u, k), n = types.shape, matrix.shape[1]
    heads, head, tails, tail = _half_tables(matrix, types)
    na, nb = heads.shape[1], tails.shape[1]
    rows = max(1, STREAM_BLOCK_ENTRIES // nb)
    sums = np.empty(u * na)
    for lo in range(0, u * na, rows):
        word, a = np.divmod(np.arange(lo, min(lo + rows, u * na)), na)
        terms = tails[tail[word]]
        terms *= heads[head[word], a, None]
        terms -= float(n) ** -k
        sums[lo : lo + rows] = np.abs(terms, out=terms).sum(axis=1)
    return sums.reshape(u, na).sum(axis=1)


def _row_sums(matrix, codebook):
    """Per codeword: the owned mass m_j, the number of owned output strings,
    and the uniform-row gap sum_y |row_j(y) - 1/n**k|, filled in for every
    row that owns nothing (and for the first of a repeated word).

    Each output string goes to its most likely codeword, ties to the lowest
    index, by the streamed max-product of ``_decisions``; a codeword's mass
    adds the likelihoods it wins in string order, however the runs are cut.
    """
    # A repeated codeword has the same row as its first occurrence and loses
    # every tie to it, so it owns nothing: the pass runs over the u distinct
    # words in index order.
    first, column = _kinds(codebook)
    words = codebook[first]
    u = words.shape[0]
    mass = np.zeros(u)
    owned = np.zeros(u, dtype=np.int64)
    for winner, likelihood, _ in _decisions(matrix, words):
        owned += np.bincount(winner, minlength=u)
        np.add.at(mass, winner, likelihood)  # one term at a time, in order
    # The gap is needed for the words that own nothing and for the repeated
    # ones, whose repeats own nothing.  It depends only on the word's type,
    # its count of each symbol, so it is summed once per type.
    need = (owned == 0) | (np.bincount(column, minlength=u) > 1)
    gap = np.zeros(u)
    if need.any():
        types = np.sort(words[need], axis=1)
        distinct, kind = _kinds(types)
        gap[need] = _uniform_gaps(matrix, types[distinct])[kind]
    return np.where(first, mass[column], 0.0), np.where(first, owned[column], 0), gap[column]


def _streamed_trial(matrix, codebook):
    """Deviation and error probability of one codebook's ML decoder channel.

    From the per-codeword sums of ``_row_sums``: with s_j the row sums, the
    error is sum_j (s_j - m_j) / r, and decoder row j contributes
    |1 - m_j| + (s_j - m_j) to the deviation.  A row that owns only strings
    of zero likelihood contributes 1 + s_j; a row that owns none falls back
    to the uniform decoder row and contributes its uniform-row gap.
    """
    mass, owned, gap = _row_sums(matrix, codebook)
    if np.any(mass <= 0.0):
        warnings.warn(_ZERO_MASS)
    sums = np.prod(matrix.sum(axis=1)[codebook], axis=1)
    deviation = np.where(
        mass > 0.0,
        np.abs(1.0 - mass) + (sums - mass),
        np.where(owned > 0, 1.0 + sums, gap),
    )
    r = codebook.shape[0]
    return float(deviation.sum()) / r, float(np.sum(sums - mass)) / r


def build_code_and_decoder(channel, omega, k, rate, seed=0, guard_bits=None):
    """Draw a random codebook and its maximum-likelihood decoder channel.

    Returns ``(codebook, lossless)`` where codebook rows are input strings
    (ints) drawn iid from the k-fold input state; repeats are possible.
    """
    k = _integer(k, "k", 1)
    _check_input(channel, omega)
    r = _codebook_size(k, rate, channel.input_dim, channel.output_dim, guard_bits)
    rng = np.random.default_rng(_integer(seed, "seed"))
    codebook = _sample_codebook(rng, omega.weights, k, r)
    # the rows go before LosslessChannel copies the decoder
    decision, decoder, _ = _decoder_from_rows(_block_rows(channel.matrix, codebook))
    return codebook, LosslessChannel(decoder, decision.tolist())


@dataclass(frozen=True)
class CodingExperimentResult:
    """Mean deviation and decoding error for one block length."""

    k: int
    rate: float
    codebook_size: int
    trials: int
    seed: int
    deviation: float
    error_prob: float
    trial_deviations: tuple
    trial_error_probs: tuple


def coding_experiment(channel, omega, rate, ks, trials=20, seed=0, guard_bits=None):
    """Random-coding deviation experiment over a grid of block lengths.

    For each k, ``trials`` independent codebooks are drawn (trial t uses
    seed + t) and the deviation between the block channel and its decoder,
    along with the decoding error probability, is averaged.  Useless
    channels are refused; rates at or above capacity are allowed but warned
    about, since the deviations then have no reason to shrink.
    """
    if classify(channel).kind == "useless":
        raise ValueError("coding experiment on a useless channel is vacuous")
    trials = _integer(trials, "trials", 1)
    seed = _integer(seed, "seed")
    # the rate, the input and every block length are refused before the
    # capacity probe, which would warn first, and before any trial
    rate = _positive(rate, "rate")
    _check_input(channel, omega)
    sizes = {k: _codebook_size(k, rate, channel.input_dim, channel.output_dim, guard_bits)
             for k in sorted(set(_integer(k, "k", 1) for k in ks))}
    try:
        cap = capacity(channel, tol=1e-6, max_iter=2000).capacity
    except ConvergenceError:
        cap = None
        warnings.warn(
            "capacity probe did not converge; capacity unknown, rate %g not checked" % rate
        )
    if cap is not None and rate >= cap:
        warnings.warn(
            "rate %g is not below capacity %.6g; deviations need not shrink" % (rate, cap)
        )
    results = []
    for k, r in sizes.items():
        devs = []
        errs = []
        for t in range(trials):
            rng = np.random.default_rng(seed + t)
            codebook = _sample_codebook(rng, omega.weights, k, r)
            deviation, error = _streamed_trial(channel.matrix, codebook)
            devs.append(deviation)
            errs.append(error)
        results.append(
            CodingExperimentResult(
                k=k,
                rate=rate,
                codebook_size=r,
                trials=trials,
                seed=seed,
                deviation=float(np.mean(devs)),
                error_prob=float(np.mean(errs)),
                trial_deviations=tuple(devs),
                trial_error_probs=tuple(errs),
            )
        )
    return results
