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
likelihood is the product of two half powers, L(y) = H(y_head) T(y_tail),
over the first ceil(k/2) and the last floor(k/2) output symbols.  A trial
builds the half table T once, streams H, and forms each of the u * n**k
likelihoods with about one multiplication, in blocks of at most
``STREAM_BLOCK_ENTRIES`` entries (one output string when u alone is more).
It keeps only per-codeword sums, so its memory is the two half tables (T
whole, H one block at a time) plus the k * n * u entries of the per-symbol
likelihood factors, never u * n**k.  The uniform-row gap of a codeword
that owns no output string depends only on its type (its sorted symbols),
so a second pass covers one word per type.
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
    _ArrayValue,
    _Frozen,
    _guard,
    _positive,
    _tol,
    check_guard,
    tensor_power,
)
from .information import _entropy_bits
from .probability import ProductState, State, independence_test

# A coding trial evaluates r * n**k likelihoods; the guard bounds that work
# at 2**(guard + 2).
EXPERIMENT_GUARD_BITS = 24
# Coding trials stream the likelihood table in blocks of at most this many
# entries (one output string when a row of the table alone is more).
STREAM_BLOCK_ENTRIES = 2 ** 18
# Shared by the dense decoder and the streamed trial.
_ZERO_MASS = "decision block with zero mass; decoder row set to uniform"


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver stops short of its tolerance."""


class Channel(_ArrayValue):
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
            if mat.shape != (int(data["input_dim"]), int(data["output_dim"])):
                raise ValueError("channel matrix shape disagrees with declared dims")
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError("a channel is an object of input_dim, output_dim and matrix (%r)" % exc)
        return cls(mat)


def bsc(p):
    """Binary symmetric channel with crossover probability p."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("crossover probability must be in [0, 1]")
    return Channel([[1.0 - p, p], [p, 1.0 - p]])


def bec(p):
    """Binary erasure channel: outputs are (0, erasure, 1)."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("erasure probability must be in [0, 1]")
    return Channel([[1.0 - p, p, 0.0], [0.0, p, 1.0 - p]])


def identity_channel(d):
    return Channel(np.eye(int(d)))


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
    return State(channel.output_algebra(), omega.weights @ channel.matrix)


# joint states -----------------------------------------------------------------


class JointState(_Frozen):
    """Input-output joint state at block length ``level`` on the pair algebra.

    It is the iid product of the level-1 pair state, which is all it holds;
    ``weights`` and the marginals expand it behind the dense-expansion guard.
    """

    __slots__ = ("pair_algebra", "input_state", "level", "pair_state")

    def __init__(self, channel, input_state, level=1):
        level = int(level)
        if level < 1:
            raise ValueError("block length must be >= 1")
        _check_input(channel, input_state)
        level_one = input_state.weights[:, None] * channel.matrix  # (m, n)
        pair_algebra = AtomicAlgebra(channel.output_dim * channel.input_dim)
        object.__setattr__(self, "pair_algebra", pair_algebra)
        object.__setattr__(self, "input_state", input_state)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "pair_state", State(pair_algebra, level_one.T.ravel()))

    def __call__(self, x):
        if isinstance(x, TensorElement) and x.level > self.level:
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
    # On the level-1 joint state the input and output factor subalgebras
    # must be independent for a rank-1 channel.
    js = JointState(channel, omega, 1)
    m, n = channel.input_dim, channel.output_dim
    pair = js.pair_algebra
    out_gen = Element(pair, np.repeat(np.arange(n, dtype=float), m))
    in_gen = Element(pair, np.tile(np.arange(m, dtype=float), n))
    flag, _ = independence_test([out_gen], [in_gen], js.pair_state, tol=max(tol, 1e-9))
    if not flag:
        warnings.warn("rank-1 channel failed the joint independence check")


class InfoMetrics(NamedTuple):
    h_input: float
    h_output: float
    h_input_given_output: float
    mutual_information: float


def info_metrics(channel, omega):
    """Input/output entropies, equivocation, and mutual information (bits)."""
    _check_input(channel, omega)
    w = np.clip(np.asarray(omega.weights, dtype=float), 0.0, None)
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
    """
    if not (0.0 <= tol < np.inf and max_iter >= 1):
        raise ValueError("need a finite tol >= 0 and max_iter >= 1, got %r, %r" % (tol, max_iter))
    # Entries the channel tolerance admits below zero count as zeros; output
    # columns without mass carry nothing and leave the products.
    mat = np.clip(channel.matrix, 0.0, None)
    mat = np.ascontiguousarray(mat[:, mat.any(axis=0)])
    mat_t = np.ascontiguousarray(mat.T)
    h = (mat * np.log2(mat, out=np.zeros_like(mat), where=mat > 0.0)).sum(axis=1)
    # A q_j that underflows to 0 is read as the least positive float, which
    # keeps every d_i finite and p . d a lower bound.
    least = np.finfo(float).smallest_subnormal
    m, n = mat.shape
    p = np.full(m, 1.0 / m)
    log_q = np.empty(n)
    d = np.empty(m)
    gap = np.inf
    for iteration in range(1, int(max_iter) + 1):
        np.dot(mat_t, p, out=log_q)
        np.maximum(log_q, least, out=log_q)
        np.log2(log_q, out=log_q)
        np.dot(mat, log_q, out=d)
        np.subtract(h, d, out=d)
        lower = float(p.dot(d))
        upper = float(d.max())
        gap = upper - lower
        if gap <= tol:
            return CapacityResult(
                capacity=max(lower, 0.0),
                optimal_input=State(channel.input_algebra(), p),
                iterations=iteration,
                gap=gap,
            )
        d -= upper
        p *= np.exp2(d, out=d)
        p /= p.sum()
    raise ConvergenceError(
        "Blahut-Arimoto gap %.3e still above tol %.3e after %d iterations"
        % (gap, tol, max_iter)
    )


# random coding ------------------------------------------------------------------


@dataclass(frozen=True)
class LosslessChannel:
    """Decoder channel induced by a codebook: block rows renormalized on
    their decision sets.

    ``decision[y]`` is the codeword index each output string decodes to;
    ``matrix`` is r x n**k, one row per codeword.
    """

    matrix: np.ndarray
    decision: tuple

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if len(self.decision) != mat.shape[1]:
            raise ValueError("need one decision per output string")
        if any(not 0 <= int(i) < mat.shape[0] for i in self.decision):
            raise ValueError("decision indices out of range")
        sums = mat.sum(axis=1)
        if float(np.max(np.abs(sums - 1.0))) > EQ_TOL:
            raise ValueError("decoder rows must sum to 1")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "decision", tuple(int(i) for i in self.decision))

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


def _codebook_size(k, rate, n, guard_bits):
    """The floor(2**(k rate)) codewords of a trial, refused by the work
    guard before they are counted."""
    if k < 1:
        raise ValueError("block lengths must be >= 1")
    rate = _positive(rate, "rate")
    span = float(min(k, 2 ** 1000))  # any longer block is refused all the same
    bits = span * rate
    if bits < 1:
        raise ValueError("rate %g gives fewer than 2 codewords at block length %d" % (rate, k))
    strings = span * np.log2(n)
    _guard(strings, EXPERIMENT_GUARD_BITS, guard_bits,
           "output strings per trial, block length %d over %d symbols", k, n)
    # log2 of the size as counted, while 2**bits is a float
    size_bits = np.log2(np.floor(2.0 ** bits)) if bits < 1024 else bits
    lifted = None if guard_bits is None else float(guard_bits) + 2
    _guard(size_bits + strings, EXPERIMENT_GUARD_BITS + 2, lifted,
           "likelihoods per trial, 2^%.5g codewords times %d**%d strings", size_bits, n, k)
    return int(np.floor(2.0 ** bits))


def _sample_codebook(rng, weights, k, r):
    # Plain iid draws; repeated codewords are allowed, as in the classical
    # random-coding argument.  A repeated row loses every argmax tie, so its
    # decision block is empty and the decoder falls back to a uniform row.
    m = weights.size
    if r > m ** k:
        raise ValueError("codebook of %d words cannot fit %d**%d input strings" % (r, m, k))
    w = np.clip(weights, 0.0, None)
    w = w / w.sum()
    return rng.choice(m, size=(r, k), p=w).astype(np.int64)


def _kinds(words):
    # first[j]: word j is the first of its kind; kind[j]: the index of word
    # j's kind among the first words, in index order.  A stable sort puts
    # equal words next to each other in index order.
    order = np.lexsort(words.T)
    sorted_words = words[order]
    head = np.ones(order.size, dtype=bool)
    np.any(sorted_words[1:] != sorted_words[:-1], axis=1, out=head[1:])
    source = np.empty_like(order)
    source[order] = order[head][np.cumsum(head) - 1]
    first = source == np.arange(order.size)
    return first, (np.cumsum(first) - 1)[source]


def _symbol_factors(matrix, codebook):
    # Factor t is the n x r table C(y | codeword j's symbol t).
    return [np.ascontiguousarray(matrix[symbols].T) for symbols in codebook.T]


def _extend_columns(columns, factors):
    # Likelihood columns (one per output prefix, one entry per codeword) grown
    # by one output symbol per factor, big-endian, multiplied left to right.
    for factor in factors:
        columns = (columns[:, None, :] * factor[None, :, :]).reshape(-1, columns.shape[1])
    return columns


def _chain_blocks(factors, entries):
    # The left-to-right product table of the factors, one row per output
    # prefix, as consecutive blocks of n**t rows with the longest t that keeps
    # a block within ``entries`` entries (one row when a row alone is more).
    # Every entry is bit-identical however the table is cut.
    n, r = factors[0].shape
    tail = 0
    while tail < len(factors) and r * n ** (tail + 1) <= entries:
        tail += 1
    split = len(factors) - max(tail, 1)
    leads = _chain_blocks(factors[:split], entries) if split else [np.ones((1, r))]
    for lead in leads:
        for a in range(lead.shape[0]):
            if tail:
                yield _extend_columns(lead[a : a + 1], factors[split:])
            else:
                for symbol in factors[-1]:
                    yield lead[a : a + 1] * symbol


def _likelihood_blocks(factors):
    # The r x n**k likelihood table, transposed, in consecutive blocks of at
    # most STREAM_BLOCK_ENTRIES entries (one output string when r alone is
    # more).  The block channel is the k-fold tensor power of the channel, so
    # L(y) = H(y_head) T(y_tail): the half table H over the first ceil(k/2)
    # symbols streams from the chain, the half table T over the last
    # floor(k/2) is built once, and a block is a run of H rows times all of T
    # or one H row times a run of T rows.  The split does not depend on the
    # block size, so every entry is bit-identical however the table is cut.
    half = (len(factors) + 1) // 2
    r = factors[0].shape[1]
    tail = _extend_columns(np.ones((1, r)), factors[half:])
    step = max(1, STREAM_BLOCK_ENTRIES // r)  # T rows per block
    for heads in _chain_blocks(factors[:half], STREAM_BLOCK_ENTRIES // tail.shape[0]):
        for start in range(0, tail.shape[0], step):
            yield (heads[:, None, :] * tail[None, start : start + step, :]).reshape(-1, r)


def _block_rows(matrix, codebook):
    # Row j is the block channel C^k conditioned on codeword j; output strings
    # are packed big-endian, matching the dense() ordering of tensor elements.
    # The rows are the streamed blocks stacked, so both decoders agree bit for bit.
    return np.vstack(list(_likelihood_blocks(_symbol_factors(matrix, codebook)))).T


def _decoder_from_rows(rows):
    # Maximum-likelihood decision per output string, ties to the lowest
    # codeword index; decoder rows are renormalized restrictions.
    r = rows.shape[0]
    decision = np.argmax(rows, axis=0)
    owner = decision[None, :] == np.arange(r)[:, None]
    decoder = np.where(owner, rows, 0.0)
    masses = decoder.sum(axis=1)
    empty_mass = masses <= 0.0
    if np.any(empty_mass):
        warnings.warn(_ZERO_MASS)
        for j in np.flatnonzero(empty_mass):
            block = owner[j]
            if np.any(block):
                decoder[j, block] = 1.0 / np.count_nonzero(block)
            else:
                decoder[j, :] = 1.0 / rows.shape[1]
        ok = ~empty_mass
        decoder[ok] = decoder[ok] / masses[ok, None]
    else:
        decoder = decoder / masses[:, None]
    return decision, decoder, masses


def _row_sums(matrix, codebook):
    """Per codeword: the owned mass m_j, the number of owned output strings,
    and the uniform-row gap sum_y |row_j(y) - 1/n**k|, filled in for every
    row that owns nothing (and for the first of a repeated word).

    Each output string goes to its most likely codeword, ties to the lowest
    index, in one streamed pass over the likelihood table.
    """
    uniform = 1.0 / matrix.shape[1] ** codebook.shape[1]
    # A repeated codeword has the same row as its first occurrence and loses
    # every tie to it, so it owns nothing: the pass runs over the u distinct
    # words in index order, one column each.
    first, column = _kinds(codebook)
    words = codebook[first]
    u = words.shape[0]
    mass = np.zeros(u)
    owned = np.zeros(u, dtype=np.int64)
    for block in _likelihood_blocks(_symbol_factors(matrix, words)):
        winner = np.argmax(block, axis=1)
        mass += np.bincount(winner, weights=block[np.arange(block.shape[0]), winner],
                            minlength=u)
        owned += np.bincount(winner, minlength=u)
    # The gap is needed for the words that own nothing and for the repeated
    # ones, whose repeats own nothing.  Permuting a word's symbols permutes
    # the output strings of its row, so the gap depends only on the word's
    # type, its sorted symbols: the second pass runs over one word per type.
    need = (owned == 0) | (np.bincount(column, minlength=u) > 1)
    types = np.sort(words[need], axis=1)
    distinct, kind = _kinds(types)
    type_gap = np.zeros(np.count_nonzero(distinct))
    if type_gap.size:
        for block in _likelihood_blocks(_symbol_factors(matrix, types[distinct])):
            type_gap += np.abs(block - uniform).sum(axis=0)
    gap = np.zeros(u)
    gap[need] = type_gap[kind]
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
    k = int(k)
    _check_input(channel, omega)
    r = _codebook_size(k, rate, channel.output_dim, guard_bits)
    rng = np.random.default_rng(seed)
    codebook = _sample_codebook(rng, omega.weights, k, r)
    rows = _block_rows(channel.matrix, codebook)
    decision, decoder, _ = _decoder_from_rows(rows)
    return codebook, LosslessChannel(decoder, tuple(int(v) for v in decision))


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

    def to_dict(self):
        return {
            "k": self.k,
            "rate": self.rate,
            "codebook_size": self.codebook_size,
            "trials": self.trials,
            "seed": self.seed,
            "deviation": self.deviation,
            "error_prob": self.error_prob,
            "trial_deviations": list(self.trial_deviations),
            "trial_error_probs": list(self.trial_error_probs),
        }


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
    trials = int(trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    # refused before the capacity probe, which would warn about them first
    rate = _positive(rate, "rate")
    _check_input(channel, omega)
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
    for k in sorted(set(int(k) for k in ks)):
        r = _codebook_size(k, rate, channel.output_dim, guard_bits)
        devs = []
        errs = []
        for t in range(trials):
            rng = np.random.default_rng(int(seed) + t)
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
                seed=int(seed),
                deviation=float(np.mean(devs)),
                error_prob=float(np.mean(errs)),
                trial_deviations=tuple(devs),
                trial_error_probs=tuple(errs),
            )
        )
    return results
