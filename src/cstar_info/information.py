"""Sources, entropy, typical sets, and prefix coding.

A memoryless source is an atomic algebra with a state; its canonical output
observable carries coefficient i on atom i so that reading the observable n
times is the n-fold tensor block.  Entropy is the Shannon entropy of the
weight vector in bits, with the 0 log 0 = 0 convention.

The typical-set report compares the per-symbol information rate of the
length-n strings against the entropy (closed interval of radius eps) and
records the count and probability mass of the typical strings together with
the standard count bounds.  The rate of a string depends only on its type,
the number of times each atom occurs, so one walk over the type classes
(the method of types) decides it: the report sums the exact counts of the
typical types, and only the explicit typical projection lists their
strings.  Strings of probability zero are never typical.

Prefix codes are tied back to the algebra through word embeddings: two
distinct embedded codewords multiply to zero exactly when neither word is a
prefix of the other, so prefix-freedom is an orthogonality statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraMismatch,
    AtomicAlgebra,
    Element,
    GUARD_BITS,
    GuardExceeded,
    TERMS_GUARD_BITS,
    _Frozen,
    _Value,
    _digits,
    _factor_algebra,
    _guard,
    _integer,
    _one_hot_rows,
    _positive,
    _real,
    _tensor_element,
)
from .probability import State

# Typical-set reports refuse more than 2**TYPE_GUARD_BITS type classes.
TYPE_GUARD_BITS = 17


class Source(_Frozen):
    """A memoryless source: an atomic algebra carrying a state."""

    __slots__ = ("algebra", "state")

    def __init__(self, algebra, state):
        if not isinstance(state, State):
            raise TypeError("state must be a State")
        if state.algebra != algebra:
            raise AlgebraMismatch("state lives on %r, not %r" % (state.algebra, algebra))
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "state", state)

    @classmethod
    def from_weights(cls, weights, labels=None):
        algebra = AtomicAlgebra(len(tuple(weights)), labels=labels)
        return cls(algebra, State(algebra, weights))

    def output(self):
        """Canonical output observable: coefficient i on atom i."""
        return Element(self.algebra, np.arange(self.algebra.dim, dtype=float))

    def __repr__(self):
        return "Source(%r)" % (self.state,)


def source_output(source):
    return source.output()


def _entropy_bits(weights):
    # Shannon entropy of a weight vector in bits, with 0 log 0 = 0.
    nz = weights[weights > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def entropy(state, base=2):
    """Shannon entropy of the weight vector (0 log 0 = 0), in bits by
    default and in base-``base`` digits otherwise."""
    base = _real(base, "entropy base", "finite and above 1", math.nextafter(1.0, 2.0))
    return _entropy_bits(state.weights) / float(np.log2(base))


# typical sets -----------------------------------------------------------------


@dataclass(frozen=True)
class TypicalSetReport:
    """Exact summary of the eps-typical set at block length n."""

    n: int
    eps: float
    entropy: float
    count: int
    prob_mass: float
    lower_bound: float
    upper_bound: float
    mass_ok: bool
    count_ok: bool


def _times_pow2(count, lp):
    # count * 2**lp for an int count of any size: the bits shifted out of
    # count go into the exponent, so the float conversion cannot overflow
    shift = max(count.bit_length() - 64, 0)
    return float(count >> shift) * 2.0 ** (lp + shift)


# a bound on the relative float error of a log-probability and its rate test
_ROUNDING = 8 * math.ulp(1.0)


def _typical_run(lp, w, last, left, n, h, eps):
    """The counts c of the next-to-last atom that can be typical.

    The log-probability ``x(c) = lp + c w + (left - c) last`` is linear in c,
    so the counts whose x lies in the band ``-n (h +- eps)`` form an
    interval.  Its ends are solved as step counts from the end of [0, left]
    where |x| is least (every term of x has one sign, so the band is near
    that end whenever |x| is large), which keeps them exact to the float
    error of x even where c itself is not exact as a float, and are widened
    by that error; the walk's typicality test still decides every count in
    the range.  A count outside the range is not typical even when its rate
    lies past eps by less than the 1e-12 slack of that test.
    """
    slope = w - last
    if not slope:
        return range(left + 1)
    ref, x = (left, lp + left * w) if slope > 0 else (0, lp + left * last)
    width = n * (h + eps)
    reach = left + 1.0
    low = min(max((-width - x) / slope, -reach), reach)
    high = min(max((n * (eps - h) - x) / slope, -reach), reach)
    if slope < 0:
        low, high = high, low
    error = _ROUNDING * ((abs(x) + width) / abs(slope) + max(-low, high))
    if not error < math.inf:
        return range(left + 1)
    return range(max(ref + math.ceil(low - error), 0), min(ref + math.floor(high + error), left) + 1)


def _typical_types(logw, n, h, eps):
    """Yield ``(counts, strings, lp)`` for each eps-typical type: how often
    each atom occurs, the number of strings and their log2-probability.

    A type fixes how often each atom occurs in a length-n string; all
    ``n! / prod(c_i!)`` strings of a type share the log-probability
    ``sum(c_i log2 w_i)``.  The compositions of n are walked depth first,
    atom by atom, carrying the exact count of the prefix.  A branch ends as
    soon as no symbols are left, and the last two atoms are scanned in one
    loop over the counts that can be typical (``_typical_run``), so the walk
    costs O(1) steps per type class and the last loop O(1) steps per typical
    class.  Along that loop the rate is linear in the count, so the typical
    types form a run, and each binomial of the run follows from the one
    before.
    """
    d = len(logw)
    # (next atom, counts so far, symbols left, log2-prob, strings per prefix)
    stack = [(0, (), n, 0.0, 1)]
    while stack:
        i, head, left, lp, prefix = stack.pop()
        if left and i < d - 2:
            for c in range(left + 1):
                stack.append((i + 1, head + (c,), left - c, lp + c * logw[i], prefix * math.comb(left, c)))
            continue
        if not left or i == d - 1:
            lp += left * logw[i]
            # the closed interval of radius eps around h; the 1e-12 slack
            # absorbs float rounding on the edge
            if abs(-lp / n - h) <= eps + 1e-12:
                yield head + (left,) + (0,) * (d - i - 1), prefix, lp
            continue
        w, last = logw[i], logw[i + 1]
        binom, at = 0, -2  # binom = C(left, at)
        for c in _typical_run(lp, w, last, left, n, h, eps):
            x = lp + c * w + (left - c) * last
            if abs(-x / n - h) <= eps + 1e-12:
                binom = binom * (left - at) // c if at == c - 1 else math.comb(left, c)
                at = c
                yield head + (c, left - c), prefix * binom, x


def _typical_walk(source, n, eps, guard_bits):
    # the checked n and eps, the entropy, the atoms of positive weight and
    # the walk of the typical types over those atoms, behind the type guard
    n, eps = _integer(n, "block length", 1), _positive(eps, "eps")
    d = source.algebra.dim
    _guard(math.log2(math.comb(n + d - 1, d - 1)), TYPE_GUARD_BITS, guard_bits,
           "type classes, C(%d, %d), for the typical set", n + d - 1, d - 1)
    w = source.state.weights
    h = _entropy_bits(w)
    atoms = (w > 0.0).nonzero()[0]
    return n, eps, h, atoms, _typical_types(np.log2(w[atoms]).tolist(), n, h, eps)


def aep_typical_set(source, n, eps, guard_bits=None):
    """Count and probability mass of the eps-typical strings of length n.

    A string is typical when its information rate ``-log2 p(x) / n`` lies in
    the closed interval of radius eps around the entropy; strings of
    probability zero are never typical.  The rate depends only on the
    string's type (how often each atom occurs), so the report sums the exact
    multinomial counts of the typical type classes instead of enumerating
    the ``d**n`` strings.  The work is one step per type class,
    ``C(n + d - 1, d - 1)`` of them, and that count is what the guard
    limits (``2**TYPE_GUARD_BITS`` by default, ``2**guard_bits`` if given).
    The report also refuses, with ``GuardExceeded``, a block whose count
    bound ``2**(n (H + eps))`` is not a finite float, whatever ``guard_bits``.

    ``mass_ok`` records whether the typical mass exceeds 1 - eps;
    ``count_ok`` checks the count against 2**(n (H + eps)) from above always,
    and against (1 - eps) 2**(n (H - eps)) from below once mass_ok holds.
    """
    n, eps, h, _, types = _typical_walk(source, n, eps, guard_bits)
    try:
        upper = 2.0 ** (n * (h + eps))
    except OverflowError:
        upper = math.inf
    if not math.isfinite(upper):
        raise GuardExceeded(
            "count bound 2^(n (H + eps)) at n = %d is beyond the float range" % n
        )
    count, terms = 0, []
    for _, strings, lp in types:
        count += strings
        terms.append(_times_pow2(strings, lp))
    mass = math.fsum(terms)
    lower = (1.0 - eps) * 2.0 ** (n * (h - eps))
    mass_ok = mass > 1.0 - eps
    count_ok = count <= upper * (1.0 + 1e-12)
    if mass_ok:
        count_ok = count_ok and count >= lower * (1.0 - 1e-12)
    return TypicalSetReport(
        n=n,
        eps=eps,
        entropy=h,
        count=count,
        prob_mass=mass,
        lower_bound=lower,
        upper_bound=upper,
        mass_ok=mass_ok,
        count_ok=count_ok,
    )


def aep_projection(source, n, eps, guard_bits=None):
    """Projection onto the eps-typical strings, one one-hot elementary
    tensor (one explicit term) each.

    It expands the typical types of ``aep_typical_set``'s walk, behind its
    type-class guard.  Before any string is formed, it refuses more typical
    strings than ``terms`` may hold (``2**TERMS_GUARD_BITS``), and more than
    ``2**TERMS_GUARD_BITS * GUARD_BITS`` atoms in them.
    """
    n, eps, _, atoms, types = _typical_walk(source, n, eps, guard_bits)
    types = list(types)
    count = sum(strings for _, strings, _ in types)
    _guard(math.log2(max(count, 1)), TERMS_GUARD_BITS, None,
           "typical strings, %d, for the explicit projection", count)
    _guard(math.log2(max(count * n, 1)), TERMS_GUARD_BITS + math.log2(GUARD_BITS), None,
           "atoms in %d typical strings of length %d", count, n)
    if not count:
        return _tensor_element(source.algebra, 0j, {})
    # Positions are filled from n down to 1.  Each row branches into the
    # atoms it has left, grouped by atom, so the rows end in big-endian
    # order; left[a][r] counts the atoms a that row r has left to place.
    left = list(np.array([counts for counts, _, _ in types]).T)
    steps = []
    for _ in range(n):
        rows = [col.nonzero()[0] for col in left]
        pick = np.repeat(atoms, [r.size for r in rows])
        parent = np.concatenate(rows)
        left = [col[parent] - (pick == a) for a, col in zip(atoms, left)]
        steps.append((parent, pick))
    # read each string back through the parents, from position 1 to n; a
    # step's arrays are dropped once read
    strings = np.empty((count, n), dtype=atoms.dtype)
    row = np.arange(count)
    for k in range(n):
        parent, pick = steps.pop()
        strings[:, k] = pick[row]
        row = parent[row]
    rows = _one_hot_rows(strings, 1.0, source.algebra.dim)
    return _tensor_element(source.algebra, 0j, {tuple(range(1, n + 1)): rows})


# prefix codes -----------------------------------------------------------------


# ASCII digits only: str.isdigit and int() also take other scripts' digits
_DIGIT_VALUES = {ch: d for d, ch in enumerate("0123456789")}
# _DIGITS[base]: the characters of the digits 0..base-1
_DIGITS = [frozenset("0123456789"[:base]) for base in range(11)]


def _word_digits(word, base):
    """The digits of a nonempty digit string over 0..base-1, as ints."""
    digits = [_DIGIT_VALUES.get(ch, base) for ch in word]
    if max(digits) >= base:
        raise ValueError("word %r uses digits outside 0..%d" % (word, base - 1))
    return digits


class Code(_Value):
    """A variable-length code: one digit string per source atom.

    Words are strings over the digits 0..alphabet_size-1 (alphabet sizes up
    to 10 keep single-character digits; larger alphabets are not needed
    here and are rejected).
    """

    __slots__ = ("words", "alphabet_size")

    def __init__(self, words, alphabet_size=2):
        alphabet_size = _integer(alphabet_size, "alphabet size")
        if not 2 <= alphabet_size <= 10:
            raise ValueError("alphabet size must be between 2 and 10")
        words = tuple(str(w) for w in words)
        if not words:
            raise ValueError("a code needs at least one word")
        if not all(words) or not _DIGITS[alphabet_size].issuperset("".join(words)):
            # name the first word at fault
            for w in words:
                if not w:
                    raise ValueError("codewords must be nonempty")
                _word_digits(w, alphabet_size)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "alphabet_size", alphabet_size)

    @property
    def source_dim(self):
        return len(self.words)

    @property
    def lengths(self):
        return tuple(len(w) for w in self.words)

    def is_prefix_free(self):
        return is_prefix_free(self)

    def _identity(self):
        return (self.words, self.alphabet_size), None

    def __repr__(self):
        return "Code(%r, alphabet_size=%d)" % (self.words, self.alphabet_size)

    def to_dict(self):
        return {"n": self.alphabet_size, "words": list(self.words)}

    @classmethod
    def from_dict(cls, data):
        return cls(data["words"], data["n"])


def embed_word(word, algebra):
    """Embed a digit string as the matching atomic tensor word.

    Characters are ASCII digits below ``algebra.dim``; any other is refused.
    """
    _factor_algebra(algebra)
    word = str(word)
    if not word:
        raise ValueError("cannot embed the empty word")
    rows = _one_hot_rows(np.array([_word_digits(word, algebra.dim)]), 1.0, algebra.dim)
    return _tensor_element(algebra, 0j, {tuple(range(1, len(word) + 1)): rows})


def is_prefix_free(code):
    """No codeword is a prefix of another (and words are distinct)."""
    words = sorted(code.words)
    for a, b in zip(words, words[1:]):
        if b.startswith(a):
            return False
    return True


def kraft_check(lengths, alphabet_size):
    """Kraft inequality sum_i n**(k_max - k_i) <= n**k_max, exactly."""
    n = _integer(alphabet_size, "alphabet size", 2)
    ks = [_integer(k, "codeword length", 1) for k in lengths]
    if not ks:
        raise ValueError("need at least one length")
    k_max = max(ks)
    return sum(n ** (k_max - k) for k in ks) <= n ** k_max


def kraft_construct(lengths, alphabet_size):
    """Build a prefix-free code with exactly the given lengths.

    Words are handed out in order of increasing length as consecutive
    lexicographic intervals, so the construction is deterministic.  Raises
    ValueError when the lengths fail the Kraft inequality.
    """
    ks = [_integer(k, "codeword length", 1) for k in lengths]
    n = _integer(alphabet_size, "alphabet size", 2)
    if not kraft_check(ks, n):
        raise ValueError("lengths %r violate the Kraft inequality for base %d" % (tuple(ks), n))
    order = sorted(range(len(ks)), key=lambda i: ks[i])
    words = [None] * len(ks)
    value = 0
    prev = None
    for i in order:
        k = ks[i]
        if prev is not None:
            value = (value + 1) * (n ** (k - prev))
        # below n**k: value = n**k sum_{j<i} n**-k_j <= n**k - 1 by the Kraft check
        words[i] = "".join(map(str, _digits(value, n, k)))
        prev = k
    return Code(tuple(words), n)


@dataclass(frozen=True)
class CodeMetrics:
    """Expected length and its excess over the base-n entropy."""

    expected_length: float
    bound_value: float


def code_metrics(code, state):
    """Expected codeword length and E[k] - H_n(state) for a prefix-free code.

    The bound value is nonnegative for every prefix-free code (noiseless
    coding); entropies here use log base alphabet_size.
    """
    if code.source_dim != state.algebra.dim:
        raise AlgebraMismatch(
            "code has %d words, state has %d atoms" % (code.source_dim, state.algebra.dim)
        )
    if not is_prefix_free(code):
        raise ValueError("expected-length bounds require a prefix-free code")
    expected = _expected_length(code, state)
    return CodeMetrics(expected_length=expected,
                       bound_value=expected - entropy(state, code.alphabet_size))


def _expected_length(code, state):
    return float(np.dot(state.weights, np.array(code.lengths, dtype=float)))


def huffman_code(state, alphabet_size=2):
    """Optimal prefix-free code for the state's weights, base ``alphabet_size``.

    Deterministic tie-breaking: the queue orders nodes by (weight, creation
    index), and digits are assigned in pop order, so equal weights merge
    lowest-index first.
    """
    import heapq

    n = _integer(alphabet_size, "alphabet size")
    if not 2 <= n <= 10:
        raise ValueError("alphabet size must be between 2 and 10")
    d = state.algebra.dim
    if d == 1:
        return Code(("0",), n)
    weights = state.weights
    # pad with zero-weight dummies so every merge takes exactly n nodes
    pad = (1 - d) % (n - 1)
    heap = [(float(weights[i]), i) for i in range(d)]
    heap.extend((0.0, d + j) for j in range(pad))
    heapq.heapify(heap)
    children = {}
    next_id = d + pad
    while len(heap) > 1:
        group = [heapq.heappop(heap) for _ in range(n)]
        children[next_id] = tuple(idx for _, idx in group)
        heapq.heappush(heap, (sum(wt for wt, _ in group), next_id))
        next_id += 1
    root = heap[0][1]
    words = [None] * d
    stack = [(root, "")]
    while stack:
        node, prefix = stack.pop()
        if node < d:
            words[node] = prefix
        elif node in children:
            for digit, child in enumerate(children[node]):
                stack.append((child, prefix + str(digit)))
    return Code(tuple(words), n)
