"""Correctness oracles, one family per workload, computed apart from the program.

``check(job, output)`` returns a list of error strings (empty when the output
is right).  For a CLI job, ``output`` is ``{"rc", "stderr", "artifact"}`` with
the artifact parsed from the file the job wrote; for a library job it is the
job's return value.  Closed forms, type-class sums (``math.comb``),
heap-merge optima, Kronecker products and a minimum-Hamming-distance decoder
are computed here with numpy and the standard library; the only call into
``cstar_info`` is ``build_code_and_decoder``, which recovers a trial's
codebook by the documented per-trial seeding.
"""

import heapq
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from cstar_info import AtomicAlgebra, State, bsc, build_code_and_decoder

TOL = 1e-9


def _close(a, b, tol=TOL):
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(a)), abs(float(b)))


def _entropy(w):
    w = np.asarray(w, dtype=float).ravel()
    w = w[w > 0]
    return float(-np.sum(w * np.log2(w)))


# CLI outputs ---------------------------------------------------------------


def _ok_artifact(job, output):
    if output["rc"] != 0:
        return None, ["%s: exit %r, stderr %r" % (job.name, output["rc"], output["stderr"][:200])]
    if output["artifact"] is None:
        return None, ["%s: no artifact written" % job.name]
    return output["artifact"], []


def check_numeric_failure(job, output):
    """Blahut-Arimoto non-convergence: exit 3 with a ``numeric`` JSON error."""
    if output["rc"] != 3:
        return ["%s: expected exit 3, got %r" % (job.name, output["rc"])]
    try:
        kind = json.loads(output["stderr"].strip().splitlines()[-1])["error"]["kind"]
    except (ValueError, KeyError, IndexError, TypeError):
        return ["%s: stderr is not a JSON error: %r" % (job.name, output["stderr"][:200])]
    return [] if kind == "numeric" else ["%s: error kind %r, not numeric" % (job.name, kind)]


def _closed_capacity(form):
    kind, args = form
    if kind == "bsc":
        p = float(args)
        return 1.0 - _entropy([p, 1.0 - p])
    if kind == "bec":
        return 1.0 - float(args)
    if kind == "identity":
        return math.log2(int(args))
    return 0.0


def check_capacity_closed(job, output):
    art, errors = _ok_artifact(job, output)
    if errors:
        return errors
    want = _closed_capacity(job.meta["form"])
    got = art["summary"]["capacity"]
    if abs(got - want) > 1e-8:
        errors.append("%s: capacity %r, closed form %r" % (job.name, got, want))
    return errors


def _divergences(matrix, p):
    """D(W_x || pW) in bits for every input x."""
    q = p @ matrix
    out = np.zeros(matrix.shape[0])
    for x, row in enumerate(matrix):
        nz = row > 0
        out[x] = float(np.sum(row[nz] * np.log2(row[nz] / q[nz])))
    return out


def check_capacity_random(job, output):
    """Duality certificate: I(p*) = capacity and max_x D(W_x||p*W) - I(p*) <= tol."""
    art, errors = _ok_artifact(job, output)
    if errors:
        return errors
    p = np.array([row["optimal_weight"] for row in art["results"]])
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
        return ["%s: optimal input is not a distribution" % job.name]
    d = _divergences(job.meta["matrix"], p)
    info = float(p @ d)
    cap = art["summary"]["capacity"]
    if abs(info - cap) > 1e-12:
        errors.append("%s: I(p*) %r != capacity %r" % (job.name, info, cap))
    if float(d.max()) - info > job.meta["tol"] + 1e-12:
        errors.append("%s: duality gap %r above tol" % (job.name, float(d.max()) - info))
    return errors


_KINDS = {"bsc": "generic", "bec": "generic", "identity": "lossless",
          "useless": "useless", "generic": "generic"}


def check_channel_info(job, output):
    art, errors = _ok_artifact(job, output)
    if errors:
        return errors
    row = art["results"][0]
    matrix, state = job.meta["matrix"], job.meta["state"]
    joint = state[:, None] * matrix
    h_x, h_y, h_xy = _entropy(state), _entropy(joint.sum(axis=0)), _entropy(joint)
    want = {"h_input": h_x, "h_output": h_y, "h_input_given_output": h_xy - h_y,
            "mutual_information": h_x + h_y - h_xy}
    for key, value in want.items():
        if not _close(row[key], value):
            errors.append("%s: %s %r, expected %r" % (job.name, key, row[key], value))
    kind = job.meta["form"][0]
    if row["kind"] != _KINDS[kind]:
        errors.append("%s: kind %r, expected %r" % (job.name, row["kind"], _KINDS[kind]))
    if kind == "identity" and row["assignment"] != list(range(matrix.shape[0])):
        errors.append("%s: identity assignment %r" % (job.name, row["assignment"]))
    return errors


def _hamming_success(codebook, p):
    """sum_y max_j P(y | c_j) for a BSC, by minimum Hamming distance."""
    k = codebook.shape[1]
    words = codebook @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))
    dist = np.empty(1 << k, dtype=np.int64)
    for start in range(0, 1 << k, 256):
        ys = np.arange(start, min(start + 256, 1 << k), dtype=np.int64)
        dist[ys] = np.bitwise_count(ys[:, None] ^ words[None, :]).min(axis=1)
    return float(np.sum(p ** dist * (1.0 - p) ** (k - dist)))


def check_coding(job, output):
    """error_prob = 1 - (1/r) sum_y max_j P(y|c_j); 0 <= deviation <= 2 error_prob."""
    art, errors = _ok_artifact(job, output)
    if errors:
        return errors
    m = job.meta
    omega = (State.uniform(AtomicAlgebra(2)) if m["state"] is None
             else State(AtomicAlgebra(2), m["state"]))
    channel = bsc(m["p"])
    rows = {(row["k"], row["trial"]): row for row in art["results"]}
    per_k = {entry["k"]: entry for entry in art["summary"]["per_k"]}
    for k in m["ks"]:
        where = "%s: k=%d" % (job.name, k)
        r = int(math.floor(2.0 ** (k * m["rate"])))
        if per_k[k]["codebook_size"] != r:
            errors.append("%s codebook size %r != %d" % (where, per_k[k]["codebook_size"], r))
        errs, devs = [], []
        for t in range(m["trials"]):
            row = rows[(k, t)]
            codebook, _ = build_code_and_decoder(channel, omega, k, m["rate"], seed=m["seed"] + t)
            want = 1.0 - _hamming_success(codebook, m["p"]) / r
            err, dev = row["error_prob"], row["deviation"]
            errs.append(err)
            devs.append(dev)
            if abs(err - want) > TOL:
                errors.append("%s trial %d error_prob %r, ML oracle %r" % (where, t, err, want))
            if not -TOL <= dev <= 2.0 * err + TOL:
                errors.append("%s trial %d deviation %r outside [0, 2 error]" % (where, t, dev))
            if len({tuple(c) for c in codebook}) == r and abs(dev - 2.0 * err) > TOL:
                errors.append("%s trial %d deviation %r != 2 error %r" % (where, t, dev, err))
        if not (_close(per_k[k]["error_prob"], np.mean(errs))
                and _close(per_k[k]["deviation"], np.mean(devs))):
            errors.append("%s summary is not the trial mean" % where)
    return errors


def _comb_table(n_max):
    """Binomial coefficients C(n, k) as floats, from math.comb."""
    table = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        table[n, : n + 1] = [float(math.comb(n, k)) for k in range(n + 1)]
    return table


def _lln_exact(weights, n, eps, comb):
    """Variance, 4th central moment and P(|S_n/n - mu| > eps) of the mean of
    n iid draws of the values 0, 1, 2, summed over the multinomial counts
    (n - b - c, b, c)."""
    w0, w1, w2 = (float(v) for v in weights)
    mu = w1 + 2.0 * w2
    var = sum(wi * (i - mu) ** 2 for i, wi in enumerate(weights))
    mu4 = sum(wi * (i - mu) ** 4 for i, wi in enumerate(weights))
    c, b = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    valid = b + c <= n
    a = np.where(valid, n - b - c, 0)
    prob = comb[n, c] * comb[np.where(valid, n - c, 0), b] * w2 ** c * w1 ** b * w0 ** a
    outside = valid & (np.abs((b + 2 * c) / n - mu) > eps)
    return var / n, (mu4 + 3.0 * (n - 1) * var * var) / n ** 3, float(prob[outside].sum())


def check_lln(job, output):
    art, errors = _ok_artifact(job, output)
    if errors:
        return errors
    eps = job.meta["eps"]
    comb = _comb_table(max(row["n"] for row in art["results"]))
    for row in art["results"]:
        n = row["n"]
        var, m4, tail = _lln_exact(job.meta["weights"], n, eps, comb)
        moment = var if job.meta["moment"] == 2 else m4
        checks = (("variance", row["variance"], var), ("moment", row["moment"], moment),
                  ("chebyshev_bound", row["chebyshev_bound"], var / eps ** 2))
        for key, got, want in checks:
            if not _close(got, want, 1e-8):
                errors.append("%s: n=%d %s %r, expected %r" % (job.name, n, key, got, want))
        if abs(row["tail_probability"] - tail) > 1e-10:
            errors.append("%s: n=%d tail %r, multinomial %r"
                          % (job.name, n, row["tail_probability"], tail))
        if row["tail_probability"] > row["chebyshev_bound"] + 1e-12:
            errors.append("%s: n=%d tail above the Chebyshev bound" % (job.name, n))
    return errors


def _compositions(n, d):
    for cut in itertools.combinations(range(n + d - 1), d - 1):
        edges = (-1,) + cut + (n + d - 1,)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(d))


def _multinomial(counts):
    out, left = 1, sum(counts)
    for c in counts:
        out *= math.comb(left, c)
        left -= c
    return out


def _typical_types(weights, n, eps):
    """(count, mass) of the eps-typical strings, summed over type classes."""
    logw = np.log2(weights)
    h = _entropy(weights)
    count, mass = 0, 0.0
    for counts in _compositions(n, len(weights)):
        rate = -float(np.dot(counts, logw)) / n
        if abs(rate - h) <= eps + 1e-12:
            size = _multinomial(counts)
            count += size
            mass += size * float(np.prod(np.asarray(weights) ** np.asarray(counts)))
    return count, mass


def check_aep(job, output):
    art, errors = _ok_artifact(job, output)
    if errors:
        return errors
    w, eps = job.meta["weights"], job.meta["eps"]
    h = _entropy(w)
    for row in art["results"]:
        n = row["n"]
        count, mass = _typical_types(w, n, eps)
        if row["count"] != count:
            errors.append("%s: n=%d count %r, type classes give %r"
                          % (job.name, n, row["count"], count))
        if not _close(row["prob_mass"], mass):
            errors.append("%s: n=%d mass %r, type classes give %r"
                          % (job.name, n, row["prob_mass"], mass))
        if not _close(row["entropy"], h):
            errors.append("%s: n=%d entropy %r, expected %r" % (job.name, n, row["entropy"], h))
        if row["mass_ok"] != (mass > 1.0 - eps):
            errors.append("%s: n=%d mass_ok flag wrong" % (job.name, n))
    return errors


def _prefix_free(words):
    ordered = sorted(words)
    return all(not b.startswith(a) for a, b in zip(ordered, ordered[1:]))


def _huffman_optimum(weights, alphabet):
    """Optimal expected length: the sum of all merged weights of a D-ary heap merge."""
    heap = [float(w) for w in weights]
    while (len(heap) - 1) % (alphabet - 1):
        heap.append(0.0)
    heapq.heapify(heap)
    total = 0.0
    while len(heap) > 1:
        merged = sum(heapq.heappop(heap) for _ in range(alphabet))
        total += merged
        heapq.heappush(heap, merged)
    return total


def _code_common(job, art, words, alphabet):
    errors = []
    w = job.meta["weights"]
    if [row["word"] for row in art["results"]] != list(words):
        errors.append("%s: word rows differ from the code" % job.name)
    if any(row["length"] != len(row["word"]) for row in art["results"]):
        errors.append("%s: a length column is wrong" % job.name)
    summary = art["summary"]
    length = float(np.dot(w, [len(x) for x in words]))
    h = _entropy(w) / math.log2(alphabet)
    kraft = sum(Fraction(1, alphabet ** len(x)) for x in words) <= 1
    if summary["prefix_free"] != _prefix_free(words) or summary["kraft_ok"] != kraft:
        errors.append("%s: prefix_free/kraft_ok flags wrong" % job.name)
    if not (_close(summary["expected_length"], length) and _close(summary["entropy_base_n"], h)
            and _close(summary["bound_value"], length - h)):
        errors.append("%s: expected length or entropy wrong" % job.name)
    return errors, summary["expected_length"], h


def check_huffman(job, output):
    """Expected length equals the heap-merge optimum and H <= L < H + 1."""
    art, errors = _ok_artifact(job, output)
    if errors:
        return errors
    alphabet = job.meta["alphabet"]
    words = [row["word"] for row in art["results"]]
    if not _prefix_free(words) or any(int(ch) >= alphabet for x in words for ch in x):
        return ["%s: Huffman words are not a prefix code over the alphabet" % job.name]
    errors, length, h = _code_common(job, art, words, alphabet)
    if not _close(length, _huffman_optimum(job.meta["weights"], alphabet)):
        errors.append("%s: expected length %r is not optimal" % (job.name, length))
    if not h - TOL <= length < h + 1.0:
        errors.append("%s: expected length %r outside [H, H + 1)" % (job.name, length))
    return errors


def check_words(job, output):
    art, errors = _ok_artifact(job, output)
    if errors:
        return errors
    return _code_common(job, art, job.meta["words"], 2)[0]


# library outputs -------------------------------------------------------------


def dense_on(element, positions, dim):
    """Coefficients of a tensor element over every string on ``positions``.

    Every position outside ``positions`` must be an identity factor in every
    term; ``positions`` defaults to 1..level when the element is explicit.
    """
    index = {p: i for i, p in enumerate(positions)}
    out = np.zeros((dim,) * len(positions), dtype=complex)
    for idx, c in element.terms.items():
        sel = [slice(None)] * len(positions)
        for pos, atom in idx.pairs:
            sel[index[pos]] = atom
        out[tuple(sel)] += c
    return out.ravel()


def kron_all(vectors):
    out = np.ones(1)
    for v in vectors:
        out = np.kron(out, np.asarray(v))
    return out


def _vec_close(got, want, name):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return ["%s: shape %r, expected %r" % (name, got.shape, want.shape)]
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    return [] if err <= TOL * scale else ["%s: off by %.3g" % (name, err)]


def check_joint(job, out):
    """Density and observable are Kronecker powers; trace(density) = 1."""
    res, tr = out
    m = job.meta
    matrix = np.array([[1.0 - m["p"], m["p"]], [m["p"], 1.0 - m["p"]]])
    pair_weights = (np.asarray(m["state"])[:, None] * matrix).T.ravel()
    levels = list(range(1, m["k"] + 1))
    errors = _vec_close(dense_on(res.density, levels, 4), kron_all([pair_weights] * m["k"]),
                        job.name + " density")
    errors += _vec_close(dense_on(res.observable, levels, 4), kron_all([matrix.T.ravel()] * m["k"]),
                         job.name + " observable")
    if abs(tr - 1.0) > TOL:
        errors.append("%s: trace(density) = %r" % (job.name, tr))
    return errors


def check_power(job, out):
    """dense() equals np.kron powers; ProductState equals dense(x) . kron(weights)."""
    tp, vec, value, tr = out
    m = job.meta
    want = kron_all([m["coeffs"]] * m["k"])
    errors = _vec_close(dense_on(tp, list(range(1, m["k"] + 1)), 4), want, job.name + " terms")
    errors += _vec_close(vec, want, job.name + " dense()")
    weights = [m["factors"][p] if p < len(m["factors"]) else m["tail"] for p in range(m["k"])]
    errors += _vec_close([value], [want @ kron_all(weights)], job.name + " ProductState")
    errors += _vec_close([tr], [want.sum()], job.name + " trace")
    return errors


def check_product(job, out):
    """Products are multiplicative under the dense expansion."""
    left, right = job.meta["left"], job.meta["right"]
    levels = list(range(1, max(left.level, right.level) + 1))
    return _vec_close(dense_on(out, levels, 4),
                      dense_on(left, levels, 4) * dense_on(right, levels, 4), job.name)


def check_embed(job, out):
    """embed_at chains are Kronecker products on their support, the product of
    two chains is multiplicative there, and ProductState is dense . kron."""
    a, b, ab, value = out
    m = job.meta
    support = sorted(set(m["pos_a"]) | set(m["pos_b"]))

    def chain(coeffs, positions):
        at = dict(zip(positions, coeffs))
        return kron_all([at.get(p, np.ones(4)) for p in support])

    errors = _vec_close(dense_on(a, support, 4), chain(m["xs"], m["pos_a"]), job.name + " left")
    errors += _vec_close(dense_on(b, support, 4), chain(m["ys"], m["pos_b"]), job.name + " right")
    dense_ab = dense_on(ab, support, 4)
    errors += _vec_close(dense_ab, dense_on(a, support, 4) * dense_on(b, support, 4),
                         job.name + " product")
    weights = [m["factors"][p - 1] if p <= len(m["factors"]) else m["tail"] for p in support]
    errors += _vec_close([value], [dense_ab @ kron_all(weights)], job.name + " ProductState")
    return errors


def check_words_orthogonal(job, out):
    """Two distinct word embeddings multiply to zero exactly when neither word
    is a prefix of the other."""
    words = job.meta["words"]
    want = [(i, j) for i in range(len(words)) for j in range(i + 1, len(words))
            if words[i].startswith(words[j]) or words[j].startswith(words[i])]
    if sorted(out) != want:
        return ["%s: %d nonzero products, %d prefix pairs" % (job.name, len(out), len(want))]
    return []


def check_projection(job, out):
    """One unit term per typical string; the count matches the type classes."""
    w, n, eps = np.asarray(job.meta["weights"]), job.meta["n"], job.meta["eps"]
    logw, h = np.log2(w), _entropy(w)
    count, _ = _typical_types(w, n, eps)
    if len(out.terms) != count:
        return ["%s: %d terms, type classes give %d" % (job.name, len(out.terms), count)]
    for idx, c in out.terms.items():
        atoms = [atom for _, atom in idx.pairs]
        rate = -float(np.sum(logw[atoms])) / n
        if c != 1.0 or len(atoms) != n or abs(rate - h) > eps + 1e-12:
            return ["%s: term %r is not a typical string" % (job.name, idx)]
    return []


CHECKS = {
    "numeric_failure": check_numeric_failure,
    "capacity_closed": check_capacity_closed,
    "capacity_random": check_capacity_random,
    "channel_info": check_channel_info,
    "coding": check_coding,
    "lln": check_lln,
    "aep": check_aep,
    "huffman": check_huffman,
    "words": check_words,
    "joint": check_joint,
    "power": check_power,
    "product": check_product,
    "embed": check_embed,
    "words_orthogonal": check_words_orthogonal,
    "projection": check_projection,
}


def check(job, output):
    return CHECKS[job.meta["check"]](job, output)
