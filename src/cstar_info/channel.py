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
string's greatest product over the heads.  Those come from integer keys:
each B is read as its rank among the tail table's distinct values, and the
key rank * u + u - 1 - place, with place a word's in head order, gives the
greatest B and its lowest word by one maximum per head and tail string,
and the next lower B by one more over the keys of lower rank: at
bsc(0.05), rate 0.99 and k = 12, 0.9 ms of a 2.8 ms trial, against 2.3 ms
for the passes over the float likelihoods.  It meets a head string's heads
by decreasing A, in stages of 1, 2, 4, ..., and decides a string once its
best is above fl(A_next maxtop), the next head's A times the greatest top
at the tail string: rounding is monotone, so no head left reaches it.  At
bsc(0.05), rate 0.99 and k = 12 a string meets about 2.04 of the 64 heads.
The last stage takes every head at once, and sparse codebooks start
with it.  Only a string where a head's next lower B rounds
to the same product forms its column over all u words.  Decisions and
likelihoods are those of the full u x n**k table bit for bit, and each
codeword's mass adds the likelihoods it wins in string order.  The
uniform-row gap of a codeword that owns no output string depends only on
its type, its count t_a of each symbol a, so it is summed once per type
over that type's n**k likelihoods, formed from its half tables as in the
decoding pass.  ``STREAM_BLOCK_ENTRIES`` bounds
the size of a piece of either pass, so a trial's memory is the half
tables and one piece, never u * n**k; no result depends on it.  The
trials of one block length share their half tables and per-type gaps in
groups (``_TrialGroup``) whose tables stay within the larger of one
trial's own tables and ``STREAM_BLOCK_ENTRIES`` entries.

The decoder channel (``build_code_and_decoder``) fills one r x n**k table
from the same streamed pass, each winner read as its word's first index,
divides it in place and hands it to ``LosslessChannel`` uncopied: it
peaks at about one table.
"""

from __future__ import annotations

import functools
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
    _key_runs,
    _kinds,
    _pack,
    _positive,
    _real,
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
# The ML pass takes every head at once, not the head search, when its first
# stage would leave more than this share of the output strings open.
SEARCH_OPEN_SHARE = 0.5
# Warned by the decoder table and by the streamed trial alike.
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
        mat += 0.0  # -0.0 is stored as 0.0
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
            "matrix": self.matrix.tolist(),
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
        picks = np.asarray(decision)
        if picks.shape != mat.shape[1:]:
            raise ValueError("need one decision per output string")
        if picks.dtype.kind not in "iu" or picks.min() < 0 or picks.max() >= len(mat):
            # name the first entry that is a bool, a float, a string or out of range
            for v in np.asarray(decision, dtype=object).tolist():
                if type(v) is bool or not isinstance(v, (int, np.integer)) or not 0 <= v < len(mat):
                    raise ValueError("decision must be an integer in [0, %d), got %r" % (len(mat), v))
        picks = picks.astype(np.int64, copy=False)  # ints numpy held as objects
        self.__setstate__((None, {"matrix": mat, "decision": tuple(picks.tolist())}))

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


def _key_dtype(levels, u):
    # the keys rank * u + place of ``_head_tops``, below levels * u, and u
    # itself: int32 where they fit
    return np.int32 if levels * u < 2 ** 31 else np.int64


def _head_tops(tails, tail, head, h):
    # Per distinct head and tail string, over the head's words: the greatest
    # tail likelihood top, the lowest word attaining it, and the greatest
    # below it, second (0 without one).  A likelihood is read as its rank
    # among the table's distinct values and 0, which compare as the values
    # do, in the integer key rank * u + u - 1 - place, with place the word's
    # in head order, which grows with its index: the greatest key of a head
    # holds its top and its lowest word at once.  In chunks of whole heads.
    u, nb = tail.size, tails.shape[1]
    values = np.sort(np.append(tails, 0.0))  # 0 is rank 0, read for no second
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    dtype = _key_dtype(values.size, u)
    keys = values.searchsorted(tails).astype(dtype)
    keys *= u
    top, second = np.empty((h, nb)), np.empty((h, nb))
    top_word = np.empty((h, nb), dtype=np.int64)
    order = np.argsort(head, kind="stable")  # by head, each in index order
    place = np.arange(u - 1, -1, -1, dtype=dtype)[:, None]
    counts = np.bincount(head, minlength=h)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    lo = 0
    while lo < h:
        fit = np.searchsorted(bounds, bounds[lo] + STREAM_BLOCK_ENTRIES // nb, side="right") - 1
        hi = min(h, max(lo + 1, int(fit)))
        words = order[bounds[lo] : bounds[hi]]
        starts = bounds[lo:hi] - bounds[lo]
        block = keys[tail[words]]
        block += place[bounds[lo] : bounds[hi]]
        best = np.maximum.reduceat(block, starts)
        level, last = np.divmod(best, u)
        top[lo:hi] = values.take(level)
        top_word[lo:hi] = order[::-1].take(last)
        below = np.where(block < np.repeat(best - last, counts[lo:hi], axis=0), block, 0)
        second[lo:hi] = values.take(np.maximum.reduceat(below, starts) // u)
        lo = hi
    return top, top_word, second


def _max_product(heads, top, top_word, second, u):
    # Over the heads on axis 0 (the operands broadcast to one shape), per
    # string: the greatest product best of a head's likelihood and its top,
    # the lowest word among the heads attaining it, and whether a head's
    # product with its second rounds to it too.
    products = heads * top
    best = products.max(axis=0)
    winner = np.minimum.reduce(np.broadcast_to(top_word, products.shape),
                               axis=0, where=products == best, initial=u)
    # fl(A second) <= fl(A top) <= best, with equality only for a tied head
    np.multiply(heads, second, out=products)
    return best, winner, products.max(axis=0) == best


def _head_search(heads, top, top_word, second, u):
    # Each head string meets its heads by decreasing likelihood, in stages
    # of 1, 2, 4, ... heads.  No head not yet met rounds to more than
    # fl(A_next maxtop), the head string's next likelihood times the
    # greatest top at the tail string, so a string whose best is above it
    # is decided.  A string of best 0 stays open to the last head.
    h, cols = heads.shape[0], top.shape[1]
    order = np.argsort(-heads, axis=0)
    ranked = np.take_along_axis(heads, order, axis=0)
    maxtop = top.max(axis=0)
    met = order[:1]
    best, winner, redone = _max_product(ranked[:1, :, None], top[met], top_word[met],
                                        second[met], u)
    at = np.flatnonzero(best <= ranked[1, :, None] * maxtop)  # the open strings
    best_at, winner_at, redone_at = best.ravel(), winner.ravel(), redone.ravel()
    lo = 1
    while at.size:
        hi = min(h, 2 * lo + 1)
        a, b = np.divmod(at, cols)
        # gathered C-ordered, heads on axis 0: an index array after a slice
        # gives the transposed layout, which reduces slowly
        met = order[lo:hi].take(a, axis=1)
        found, word, redo = _max_product(ranked[lo:hi].take(a, axis=1), top[met, b],
                                         top_word[met, b], second[met, b], u)
        # the heads met before and the stage's, merged exactly: a greater
        # best replaces the old one, an equal one keeps the lower word and
        # either redo
        old, old_word, old_redo = best_at[at], winner_at[at], redone_at[at]
        gain, tie = found > old, found == old
        winner_at[at] = np.where(gain | tie & (word < old_word), word, old_word)
        redone_at[at] = np.where(gain, redo, old_redo | tie & redo)
        best_at[at] = found = np.maximum(old, found)
        if hi == h:
            break
        at, lo = at[found <= ranked[hi, a] * maxtop[b]], hi
    return best, winner, redone


def _run_winners(heads, top, top_word, second, u, search):
    # Best likelihood and winner per string of a run, heads against tail
    # strings, and the strings whose column must be formed.  With ``search``
    # a run over two heads or more searches its heads; otherwise it takes
    # every head at once, as the search's last stage does.
    if search and heads.shape[0] > 1:
        best, winner, redone = _head_search(heads, top, top_word, second, u)
    else:
        best, winner, redone = _max_product(heads[:, :, None], top[:, None, :],
                                            top_word[:, None, :], second[:, None, :], u)
    winner[best == 0.0] = 0  # every likelihood is 0
    return winner, best, redone & (best > 0.0)


class _RowMemo:
    """Values of distinct integer rows, each computed once by ``fill``.

    The rows met so far are kept as their keys packed with the fixed base
    ``base``, so a later batch is matched against them by one stable sort of
    both; ``values`` holds their values in order of arrival.
    """

    def __init__(self, fill, base):
        self.fill, self.base = fill, base
        self.keys = self.values = None
        self.size = 0

    def match(self, rows):
        # (label, new, keys): each row's label, its value's index once the
        # new distinct rows follow the known ones in sorted order; the first
        # row of each new label; and the keys of those rows
        keys = _pack(rows, self.base)
        known = [np.concatenate(pair) for pair in zip(self.keys, keys)] if self.size else keys
        order, starts = _key_runs(known, self.size + len(rows))
        lead = order[starts]  # a known row leads its run: the sort is stable
        fresh = (lead >= self.size).nonzero()[0]  # the runs of new rows
        new = lead[fresh] - self.size
        lead[fresh] = np.arange(self.size, self.size + len(fresh))  # each run's label
        label = np.empty_like(order)
        label[order] = lead[np.cumsum(starts) - 1]
        return label[self.size :], new, [key[new] for key in keys]

    def add(self, rows, found):
        # the labels of `found`, the match of the rows, once their new
        # distinct rows have values
        label, new, keys = found
        if len(new):
            values = self.fill(rows[new])
            if self.size:
                values = np.concatenate((self.values, values))
                keys = [np.concatenate(pair) for pair in zip(self.keys, keys)]
            self.values, self.keys = values, keys
            self.size += len(new)
        return label

    def lookup(self, rows):
        return self.add(rows, self.match(rows))


def _split(words):
    # the heads, the first ceil(k/2) symbols of the words, and the tails
    half = (words.shape[1] + 1) // 2
    return words[:, :half], words[:, half:]


def _half_memos(matrix):
    # the half tables over the heads and over the tails
    table = functools.partial(_half_table, matrix)
    return _RowMemo(table, matrix.shape[0]), _RowMemo(table, matrix.shape[0])


def _decisions(matrix, words, tables=None):
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

    ``_head_tops`` finds top, its word and second from integer keys: each B
    is read as its rank among the distinct values of the tail table (the
    rows the words use), which compare as the values do, and word j's key
    is rank * u + u - 1 - place, with place its position in head order,
    which grows with j.  One maximum per head and tail string gives top and
    the lowest word attaining it, and one more over the keys of lower rank
    gives second (rank 0 is the value 0: no second).  The keys are int32
    while they fit.  At bsc(0.05), rate 0.99 and k = 12 (u = 2,467, 64 x 64
    half strings) this takes about 0.9 ms against 2.3 ms for the float
    passes it replaces.

    Each head string a meets its heads by decreasing A[h, a], in stages of
    1, 2, 4, ... heads, and string (a, b) is decided once its best so far
    is strictly above fl(A_next maxtop), with A_next the greatest A[h, a]
    of a head not yet met and maxtop the greatest top[h, b] of the run.
    Rounding is monotone, so no head not met reaches that best with its
    top or its second: the winner, its likelihood and the redo flag are
    final.  At bsc(0.05), rate 0.99 and k = 12 a string meets about 2.04
    of the 64 heads.  The last stage is every head at once; a trial takes
    it from the start when the u words fill at most ``1 - SEARCH_OPEN_SHARE``
    of the h * nb head-tail pairs (the first stage decides a string about
    when its likeliest head and tail form a word).
    ``tables`` are ``_TrialGroup.tables`` of the words, those of a group of
    one when not given.
    """
    u = words.shape[0]
    if tables is None:
        tables = _TrialGroup(matrix, words.shape[1]).tables(words)
    heads, head, tails, tail = tables
    h, nb = heads.shape[0], tails.shape[1]
    top, top_word, second = _head_tops(tails, tail, head, h)
    # A run has at most STREAM_BLOCK_ENTRIES products over the h heads: whole
    # rows of tail strings under as many head strings as fit, or one head
    # string and as many tail strings as fit (at least one; then h * cols
    # is above half the bound, so rows is 1).
    cols = min(nb, max(1, STREAM_BLOCK_ENTRIES // h))
    rows = max(1, STREAM_BLOCK_ENTRIES // (h * cols))
    per_column = max(1, STREAM_BLOCK_ENTRIES // u)
    # The first stage of the head search decides a string when its likeliest
    # head and tail form a word, about as often as the words fill the h * nb
    # head-tail pairs: a sparser codebook would leave more than
    # SEARCH_OPEN_SHARE of the strings open, and takes every head at once.
    search = u > (1.0 - SEARCH_OPEN_SHARE) * h * nb
    for a0 in range(0, heads.shape[1], rows):
        for b0 in range(0, nb, cols):
            b = slice(b0, b0 + cols)
            winner, best, redone = _run_winners(heads[:, a0 : a0 + rows], top[:, b],
                                                top_word[:, b], second[:, b], u, search)
            width = best.shape[1]
            redo = np.flatnonzero(redone)
            for i in range(0, redo.size, per_column):
                y = redo[i : i + per_column]
                column = heads[head[:, None], a0 + y // width] * tails[tail[:, None], b0 + y % width]
                winner.flat[y] = np.argmax(column, axis=0)
            yield winner.ravel(), best.ravel(), redone.ravel()


def _uniform_gaps(matrix, types, halves=None):
    # sum_y |L(y) - n**-k| for each row of `types`, a sorted word, over its
    # n**k likelihoods fl(A B) from the half tables, as in the ML pass: those
    # of `halves`, grown by the types' new halves, or fresh ones.  A (type,
    # head string) row sums its whole contiguous row of tail strings, which
    # numpy sums pairwise, in pieces of at most STREAM_BLOCK_ENTRIES products
    # (at least one row), then each type sums its head strings' rows: no sum
    # depends on the cut or on the other rows of the tables.
    (u, k), n = types.shape, matrix.shape[1]
    if halves is None:
        halves = _half_memos(matrix)
    head, tail = (memo.lookup(part) for memo, part in zip(halves, _split(types)))
    heads, tails = (memo.values for memo in halves)
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


class _TrialGroup:
    """Half tables and uniform-row gaps shared by the coding trials of one
    block length k, run one after another.

    One pair of half tables holds the distinct heads and tails of every
    trial's distinct words and of the types whose gaps were summed; a trial
    adds only the halves the group has not met.  Each gap is summed once per
    type and looked up by later trials.  A trial's ML pass reads the rows of
    its own heads and tails.  Before a trial whose new halves would
    take the group's entries (its tables' likelihoods and its gaps) past the
    larger of the trial's own tables and ``STREAM_BLOCK_ENTRIES``, the group
    closes and the trial opens a new one, so the tables never grow with the
    number of trials.  The halves of the types whose gaps a trial needs
    join after that check.  No decision or sum depends on the order of the
    rows or on the other rows the tables hold: every value is that of the
    trial's own tables and gaps, bit for bit.
    """

    def __init__(self, matrix, k):
        self.matrix = matrix
        half = (k + 1) // 2
        self.columns = (matrix.shape[1] ** half, matrix.shape[1] ** (k - half))
        self._open()

    def _open(self):
        # the fill closes over the tables, not the group: no reference cycle
        # keeps a closed group's tables alive
        matrix, halves = self.matrix, _half_memos(self.matrix)
        self.halves = halves
        self.gap = _RowMemo(lambda types: _uniform_gaps(matrix, types, halves), matrix.shape[0])

    def tables(self, words):
        """``(heads, head, tails, tail)`` for ``_decisions`` of the words:
        the half tables over their distinct heads and tails, and each word's
        row in them."""
        head_memo, tail_memo = self.halves
        head_part, tail_part = _split(words)
        head_found, tail_found = head_memo.match(head_part), tail_memo.match(tail_part)
        # the group's entries with the trial's new halves, against those of
        # the trial's own half tables
        a, b = self.columns
        grown = (self.gap.size + (head_memo.size + len(head_found[1])) * a
                 + (tail_memo.size + len(tail_found[1])) * b)
        if grown > STREAM_BLOCK_ENTRIES and grown > (
                np.count_nonzero(np.bincount(head_found[0])) * a
                + np.count_nonzero(np.bincount(tail_found[0])) * b):
            self._open()
            return self.tables(words)
        tables = []
        for memo, part, found in ((head_memo, head_part, head_found),
                                  (tail_memo, tail_part, tail_found)):
            label, values = memo.add(part, found), memo.values
            if len(found[1]) < len(values):  # the group knew some halves
                present = np.bincount(label, minlength=len(values)) > 0
                if not present.all():
                    # _head_tops gives every head row a word, and ranks the
                    # values of the tail rows the words use
                    values, label = values[present], (np.cumsum(present) - 1)[label]
            tables += [values, label]
        return tuple(tables)

    def gaps(self, types):
        """The uniform-row gap of each row of ``types``, a sorted word."""
        label = self.gap.lookup(types)
        return self.gap.values[label]


def _row_sums(matrix, codebook, group=None):
    """Per codeword: the owned mass m_j, the number of owned output strings,
    and the uniform-row gap sum_y |row_j(y) - 1/n**k|, filled in for every
    row that owns nothing (and for the first of a repeated word).

    Each output string goes to its most likely codeword, ties to the lowest
    index, by the streamed max-product of ``_decisions``; a codeword's mass
    adds the likelihoods it wins in string order, however the runs are cut.
    The half tables and gaps come from the trial ``group``, a group of one
    when none is given.
    """
    if group is None:
        group = _TrialGroup(matrix, codebook.shape[1])
    # A repeated codeword has the same row as its first occurrence and loses
    # every tie to it, so it owns nothing: the pass runs over the u distinct
    # words in index order.
    first, column = _kinds(codebook)
    words = codebook[first]
    u = words.shape[0]
    mass = np.zeros(u)
    owned = np.zeros(u, dtype=np.int64)
    for winner, likelihood, _ in _decisions(matrix, words, group.tables(words)):
        owned += np.bincount(winner, minlength=u)
        np.add.at(mass, winner, likelihood)  # one term at a time, in order
    # The gap is needed for the words that own nothing and for the repeated
    # ones, whose repeats own nothing.  It depends only on the word's type,
    # its count of each symbol, so it is summed once per type.
    need = (owned == 0) | (np.bincount(column, minlength=u) > 1)
    gap = np.zeros(u)
    if need.any():
        gap[need] = group.gaps(np.sort(words[need], axis=1))
    return np.where(first, mass[column], 0.0), np.where(first, owned[column], 0), gap[column]


def _streamed_trial(matrix, codebook, group=None):
    """Deviation and error probability of one codebook's ML decoder channel.

    From the per-codeword sums of ``_row_sums``: with s_j the row sums, the
    error is sum_j (s_j - m_j) / r, and decoder row j contributes
    |1 - m_j| + (s_j - m_j) to the deviation.  A row that owns only strings
    of zero likelihood contributes 1 + s_j; a row that owns none falls back
    to the uniform decoder row and contributes its uniform-row gap.
    """
    mass, owned, gap = _row_sums(matrix, codebook, group)
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


def _ml_decoder(matrix, codebook):
    # The decisions, the decoder table and its row masses.  Each output
    # string goes to the lowest codeword of greatest likelihood: the
    # streamed pass decides over the distinct words, and a repeat loses
    # every tie to its first index.  Decoder rows are renormalized
    # restrictions, in one table filled and divided in place; it is
    # C-ordered because the last bits of its row sums, the masses, depend
    # on the layout.
    first, _ = _kinds(codebook)
    winner, likelihood, _ = map(np.concatenate, zip(*_decisions(matrix, codebook[first])))
    decision = first.nonzero()[0][winner]
    strings = np.arange(decision.size)
    decoder = np.zeros((codebook.shape[0], decision.size))
    decoder[decision, strings] = likelihood
    masses = decoder.sum(axis=1)
    empty = masses <= 0.0
    if np.any(empty):
        warnings.warn(_ZERO_MASS)
        # a row without mass is uniform on the strings it owns, or on every
        # string when it owns none
        owned = np.bincount(decision, minlength=len(decoder))
        lost = empty[decision]
        decoder[decision[lost], strings[lost]] = 1.0 / owned[decision[lost]]
        decoder[empty & (owned == 0)] = 1.0 / decision.size
    np.divide(decoder, masses[:, None], out=decoder, where=~empty[:, None])
    return decision, decoder, masses


def build_code_and_decoder(channel, omega, k, rate, seed=0, guard_bits=None):
    """Draw a random codebook and its maximum-likelihood decoder channel.

    Returns ``(codebook, lossless)`` where codebook rows are input strings
    (ints) drawn iid from the k-fold input state; repeats are possible.
    """
    k = _integer(k, "k", 1)
    _check_input(channel, omega)
    r = _codebook_size(k, rate, channel.input_dim, channel.output_dim, guard_bits)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    codebook = _sample_codebook(rng, omega.weights, k, r)
    decision, decoder, _ = _ml_decoder(channel.matrix, codebook)
    # the table built here is handed over read-only, as unpickling does,
    # without the checks and the copy of LosslessChannel(...)
    lossless = object.__new__(LosslessChannel)
    lossless.__setstate__((None, {"matrix": decoder, "decision": tuple(decision.tolist())}))
    return codebook, lossless


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

    The trials of one k share their half tables and the uniform-row gap of
    each type, so a later trial forms only the halves and gaps that the
    trials before it did not.  A group of trials closes before one whose
    new halves would take the tables and gaps past the larger of that
    trial's own tables and ``STREAM_BLOCK_ENTRIES`` entries: memory does
    not grow with ``trials``.  Every trial's values are those it has alone.
    """
    if classify(channel).kind == "useless":
        raise ValueError("coding experiment on a useless channel is vacuous")
    trials = _integer(trials, "trials", 1)
    seed = _integer(seed, "seed", 0)
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
        group = _TrialGroup(channel.matrix, k)
        for t in range(trials):
            rng = np.random.default_rng(seed + t)
            codebook = _sample_codebook(rng, omega.weights, k, r)
            deviation, error = _streamed_trial(channel.matrix, codebook, group)
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
