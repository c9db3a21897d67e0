"""Seed-generated job lists for the four benchmark workloads.

``build(workload, seed, workdir, quick)`` returns the workload's jobs and the
shape of the reference kernel that brackets them.  A job is either a CLI
invocation (``argv`` passed to ``cstar_info.cli.main`` in process, with the
artifact written under ``workdir``) or a library call (``fn``).  Every job
carries the inputs its oracle needs in ``meta``; the oracle is named by
``meta["check"]`` (see ``oracles.py``).

Library jobs look functions up through their modules at call time
(``algebra.tensor_power``, not a captured reference), so the traced run's
wrappers see them.
"""

import json
import os

import numpy as np

from cstar_info import algebra, channel, information, probability

# Reference-kernel shape per workload: (dict/tuple churn iterations,
# elements per fresh float array, number of fresh arrays).  The
# interpreter-bound churn carries most of the weight: it tracked the
# machine's drift best, even for the numpy-heavy jobs, while arrays big
# enough to be page-faulted in anew on every call tracked it worst (see
# README.md).  The 2-8 MB arrays are recycled by the allocator and never set
# a workload's peak RSS.  A call takes about 40-80 ms on source and tensor,
# where a longer kernel averaged out more of the machine's jitter, and about
# 14-20 ms on coding and channel (coding spread more with a 45 ms kernel).
KERNELS = {
    "coding": (10_000, 1_000_000, 2),
    "channel": (20_000, 500_000, 2),
    "source": (66_000, 250_000, 6),
    "tensor": (75_000, 1_000_000, 3),
}

WORKLOADS = tuple(KERNELS)

# Nominal CPU seconds of one kernel call per workload: the median of eight
# fresh processes on the 2-core machine where the benchmark was built.
# ``setup_s`` is the set-up's cost in kernel calls times this figure, so it
# reads as seconds on that machine whatever the speed of the one it runs on.
KERNEL_CPU_S = {"coding": 0.020, "channel": 0.028, "source": 0.055, "tensor": 0.070}

# Plain random channels (rows uniform, normalised) drawn from fixed
# generators, so they are the same for every --seed.  Blahut-Arimoto needs
# 5058 and 4490 iterations on the first two; on the last two it does not
# reach tol=1e-9 within the default max_iter=10000 and the CLI exits 3.
SLOW_CHANNELS = ((16, 3), (32, 1))
FAILING_CHANNELS = ((48, 0), (64, 1))


class Job:
    """One timed operation: a CLI argv or a library callable."""

    __slots__ = ("name", "argv", "fn", "meta")

    def __init__(self, name, argv=None, fn=None, **meta):
        self.name = name
        self.argv = argv
        self.fn = fn
        self.meta = meta

    @property
    def output_path(self):
        return self.argv[self.argv.index("--output") + 1]


def _num(x):
    return repr(float(x))


def _weights_arg(w):
    return ",".join(_num(v) for v in w)


def _simplex(rng, d, alpha=2.0):
    w = rng.dirichlet(np.full(d, alpha))
    return w / w.sum()


def _plain_channel(n, s):
    rng = np.random.default_rng([n, s])
    m = rng.random((n, n))
    return m / m.sum(axis=1, keepdims=True)


def _diagonal_channel(rng, n):
    # 0.6 I + 0.4 R converges in well under 200 iterations for every seed
    # tried (1000 seeds at n = 16, 300 at n = 32..64).
    r = rng.random((n, n))
    r /= r.sum(axis=1, keepdims=True)
    m = 0.6 * np.eye(n) + 0.4 * r
    return m / m.sum(axis=1, keepdims=True)


def _write_channel(workdir, name, matrix):
    path = os.path.join(workdir, name + ".channel.json")
    n_in, n_out = matrix.shape
    data = {"input_dim": n_in, "output_dim": n_out, "matrix": matrix.tolist()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path


class _Cli:
    """Collects CLI jobs, giving each its own artifact path."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.jobs = []

    def add(self, name, argv, check, **meta):
        path = os.path.join(self.workdir, name + ".out.json")
        argv = list(argv) + ["--output", path]
        self.jobs.append(Job(name, argv=argv, check=check, **meta))

    def coding(self, name, p, rate, ks, trials, seed, state=None):
        argv = ["coding-experiment", "--channel", "bsc(%s)" % _num(p), "--rate", _num(rate),
                "--ks", ",".join(str(k) for k in ks), "--trials", str(trials),
                "--seed", str(seed)]
        if state is not None:
            argv += ["--state", _weights_arg(state)]
        self.add(name, argv, "coding", p=float(p), rate=float(rate), ks=list(ks),
                 trials=trials, seed=seed, state=None if state is None else list(state))


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


# coding --------------------------------------------------------------------


def _coding(rng, workdir, quick):
    cli = _Cli(workdir)
    s = _seeds(rng, 3)
    q = 0.5 + rng.uniform(-0.1, 0.1)
    if quick:
        cli.coding("k6-8", 0.05, 0.99, (6, 8), 2, s[0])
        return cli.jobs
    cli.coding("k12", 0.05, 0.99, (12,), 2, s[0])
    cli.coding("k11-skewed", 0.05, 0.99, (11,), 2, s[1], state=(q, 1.0 - q))
    cli.coding("k8-10", 0.05, 0.99, (8, 9, 10), 3, s[2])
    return cli.jobs


# channel -------------------------------------------------------------------


def _channel(rng, workdir, quick):
    cli = _Cli(workdir)
    closed = [
        ("bsc-a", ("bsc", _num(rng.uniform(0.01, 0.45)))),
        ("bsc-b", ("bsc", _num(rng.uniform(0.01, 0.45)))),
        ("bec-a", ("bec", _num(rng.uniform(0.05, 0.9)))),
        ("bec-b", ("bec", _num(rng.uniform(0.05, 0.9)))),
        ("identity-a", ("identity", str(rng.integers(2, 9)))),
        ("identity-b", ("identity", str(rng.integers(9, 17)))),
        ("useless", ("useless", _weights_arg(_simplex(rng, int(rng.integers(2, 6)))))),
    ]
    if quick:
        closed = closed[::3]
    for name, form in closed:
        literal = "%s(%s)" % form
        matrix = channel_matrix(form)
        cli.add("capacity-" + name, ["capacity", "--channel", literal],
                "capacity_closed", form=form, matrix=matrix)
        state = _simplex(rng, matrix.shape[0])
        cli.add("info-" + name, ["channel-info", "--channel", literal,
                                 "--state", _weights_arg(state)],
                "channel_info", form=form, matrix=matrix, state=state)

    sizes = (16, 48) if quick else (16, 32, 48, 64)
    for n in sizes:
        matrix = _diagonal_channel(rng, n)
        path = _write_channel(workdir, "diag%d" % n, matrix)
        cli.add("capacity-diag%d" % n, ["capacity", "--channel", path],
                "capacity_random", matrix=matrix, tol=1e-9)
        state = _simplex(rng, n)
        cli.add("info-diag%d" % n, ["channel-info", "--channel", path,
                                    "--state", _weights_arg(state)],
                "channel_info", form=("generic", None), matrix=matrix, state=state)
    slow = SLOW_CHANNELS[:1] if quick else SLOW_CHANNELS
    failing = FAILING_CHANNELS[:1] if quick else FAILING_CHANNELS
    for n, s in slow:
        matrix = _plain_channel(n, s)
        path = _write_channel(workdir, "plain%d" % n, matrix)
        cli.add("capacity-plain%d" % n, ["capacity", "--channel", path],
                "capacity_random", matrix=matrix, tol=1e-9)
    for n, s in failing:
        path = _write_channel(workdir, "plain%d" % n, _plain_channel(n, s))
        cli.add("capacity-plain%d" % n, ["capacity", "--channel", path],
                "numeric_failure")

    # Fixed rates: the codebook size, and so the decoder's memory, stays the
    # same for every seed.
    s = _seeds(rng, 2)
    q = _simplex(rng, 2, alpha=8.0)
    if quick:
        cli.coding("coding-low", rng.uniform(0.02, 0.1), 0.5, (4, 6), 2, s[0])
        return cli.jobs
    cli.coding("coding-low-a", rng.uniform(0.02, 0.1), 0.5, (6, 9, 12), 3, s[0])
    cli.coding("coding-low-b", rng.uniform(0.02, 0.1), 0.4, (8, 10), 4, s[1], state=q)
    return cli.jobs


def channel_matrix(form):
    """Input-major matrix of a closed-form channel ``(kind, literal args)``,
    built without the library."""
    kind, args = form
    if kind == "bsc":
        p = float(args)
        return np.array([[1.0 - p, p], [p, 1.0 - p]])
    if kind == "bec":
        e = float(args)
        return np.array([[1.0 - e, e, 0.0], [0.0, e, 1.0 - e]])
    if kind == "identity":
        return np.eye(int(args))
    row = np.array([float(v) for v in args.split(",")])
    return np.tile(row, (row.size, 1))


# source --------------------------------------------------------------------


def _prefix_words(weights):
    """Canonical binary code with Shannon lengths ceil(-log2 w)."""
    lengths = [max(1, int(np.ceil(-np.log2(w)))) for w in weights]
    order = sorted(range(len(weights)), key=lambda i: (lengths[i], i))
    words = [None] * len(weights)
    value, prev = 0, lengths[order[0]]
    for rank, i in enumerate(order):
        if rank:
            value = (value + 1) << (lengths[i] - prev)
        words[i] = format(value, "0%db" % lengths[i])
        prev = lengths[i]
    return words


def _source(rng, workdir, quick):
    cli = _Cli(workdir)
    top = 40 if quick else 300

    def lln(name, grid, moment):
        w = _simplex(rng, 3)
        eps = rng.uniform(0.05, 0.2)
        cli.add(name, ["lln", "--p", _weights_arg(w), "--n", grid, "--eps", _num(eps),
                       "--moment", str(moment)], "lln", weights=w, eps=eps, moment=moment)

    lln("lln-full", "1:%d" % top, 2)
    lln("lln-sparse", ",".join(str(n) for n in (10, top // 6, top // 3, top // 2, top)), 4)

    # Fixed sources and tolerances: the cost grows with the typical-set
    # size, which jumps with the weights and eps, and these keep it the same
    # for every seed.
    def aep(name, w, eps, grid):
        cli.add(name, ["aep", "--p", _weights_arg(w), "--eps", _num(eps), "--n", grid],
                "aep", weights=np.asarray(w, dtype=float), eps=eps)

    aep("aep-binary", (0.9, 0.1), 0.2, "8:10" if quick else "22:24")
    aep("aep-ternary", (0.6, 0.3, 0.1), 0.15, "5:6" if quick else "13:15")

    for name, atoms, alphabet in (("huffman-2", 300, 2), ("huffman-3", 500, 3)):
        w = _simplex(rng, atoms // 10 if quick else atoms, alpha=1.0)
        cli.add(name, ["code", "--state", _weights_arg(w), "--huffman",
                       "--alphabet", str(alphabet)], "huffman", weights=w, alphabet=alphabet)
    w = _simplex(rng, 30 if quick else 300, alpha=1.0)
    words = _prefix_words(w)
    cli.add("words", ["code", "--state", _weights_arg(w), "--words", ",".join(words)],
            "words", weights=w, words=words)
    return cli.jobs


# tensor --------------------------------------------------------------------


def _joint_job(p, state, k):
    def run():
        omega = probability.State(algebra.AtomicAlgebra(len(state)), state)
        res = channel.joint(channel.bsc(p), omega, k)
        return res, algebra.trace(res.density)

    return Job("joint-k%d" % k, fn=run, check="joint", p=p, state=state, k=k)


def _power_job(coeffs, k, factors, tail):
    def run():
        a = algebra.AtomicAlgebra(len(coeffs))
        tp = algebra.tensor_power(algebra.Element(a, coeffs), k)
        vec = tp.dense()
        omega = probability.ProductState(
            [probability.State(a, w) for w in factors], probability.State(a, tail))
        return tp, vec, omega(tp), algebra.trace(tp)

    return Job("power-k%d" % k, fn=run, check="power", coeffs=coeffs, k=k,
               factors=factors, tail=tail)


def _product_job(left, right):
    def run():
        return left * right

    return Job("explicit-product", fn=run, check="product", left=left, right=right)


def _embed_job(xs, pos_a, ys, pos_b, factors, tail):
    def run():
        a_alg = algebra.AtomicAlgebra(len(xs[0]))

        def chain(coeffs, positions):
            out = algebra.embed_at(algebra.Element(a_alg, coeffs[0]), positions[0])
            for c, pos in zip(coeffs[1:], positions[1:]):
                out = out * algebra.embed_at(algebra.Element(a_alg, c), pos)
            return out

        a, b = chain(xs, pos_a), chain(ys, pos_b)
        ab = a * b
        omega = probability.ProductState(
            [probability.State(a_alg, w) for w in factors], probability.State(a_alg, tail))
        return a, b, ab, omega(ab)

    return Job("embed-high", fn=run, check="embed", xs=xs, pos_a=pos_a, ys=ys, pos_b=pos_b,
               factors=factors, tail=tail)


def _word_set(rng, leaves, extra):
    """Leaves of a random binary tree (a prefix code) plus some inner nodes."""
    frontier = [""]
    inner = []
    while len(frontier) < leaves:
        node = frontier.pop(int(rng.integers(len(frontier))))
        if node:
            inner.append(node)
        frontier += [node + "0", node + "1"]
    pick = rng.choice(len(inner), size=min(extra, len(inner)), replace=False)
    words = frontier + [inner[i] for i in sorted(pick)]
    return [words[i] for i in rng.permutation(len(words))]


def _words_job(words):
    def run():
        a2 = algebra.AtomicAlgebra(2)
        embs = [information.embed_word(w, a2) for w in words]
        return [(i, j) for i in range(len(embs)) for j in range(i + 1, len(embs))
                if (embs[i] * embs[j]).terms]

    return Job("word-products", fn=run, check="words_orthogonal", words=words)


def _projection_job(weights, n, eps):
    def run():
        src = information.Source.from_weights(weights)
        return information.aep_projection(src, n, eps)

    return Job("aep-projection", fn=run, check="projection", weights=weights, n=n, eps=eps)


def _tensor(rng, workdir, quick):
    jobs = []
    k_joint = (3, 2) if quick else (7, 6)
    jobs.append(_joint_job(float(rng.uniform(0.01, 0.45)), [0.5, 0.5], k_joint[0]))
    jobs.append(_joint_job(float(rng.uniform(0.01, 0.45)), list(_simplex(rng, 2)), k_joint[1]))

    k = 4 if quick else 7
    jobs.append(_power_job(list(rng.uniform(0.5, 1.5, size=4)), k,
                           [list(_simplex(rng, 4)) for _ in range(k // 2)],
                           list(_simplex(rng, 4))))

    level = 3 if quick else 5
    a4 = algebra.AtomicAlgebra(4)
    left = algebra.tensor_power(algebra.Element(a4, rng.uniform(0.5, 1.5, size=4)), level)
    right = algebra.tensor_power(algebra.Element(a4, rng.uniform(0.5, 1.5, size=4)), level)
    jobs.append(_product_job(left, right))

    # Two 5-position chains of embed_at (1024 terms each) sharing three
    # positions: the product merges 1024 x 1024 partially explicit strings.
    # The shared positions are the lowest of the second chain, so a merge
    # meets a clash at the same step whatever positions the seed draws.
    width, shared, span = (3, 1, 300) if quick else (5, 3, 5000)
    positions = sorted(int(p) for p in rng.choice(np.arange(100, span),
                                                  size=2 * width - shared, replace=False))
    pos_a = positions[:width]
    pos_b = positions[width - shared:]
    xs = [list(rng.uniform(0.5, 1.5, size=4)) for _ in pos_a]
    ys = [list(rng.uniform(0.5, 1.5, size=4)) for _ in pos_b]
    factors = [list(_simplex(rng, 4)) for _ in range(span // 2)]
    jobs.append(_embed_job(xs, pos_a, ys, pos_b, factors, list(_simplex(rng, 4))))

    jobs.append(_words_job(_word_set(rng, 25 if quick else 200, 5 if quick else 40)))
    # Fixed source and tolerance, as for the aep jobs of the source workload.
    jobs.append(_projection_job([0.6, 0.3, 0.1], 6 if quick else 11, 0.15))
    return jobs


_BUILDERS = {"coding": _coding, "channel": _channel, "source": _source, "tensor": _tensor}


def build(workload, seed, workdir, quick=False):
    """Jobs and reference-kernel shape of one workload, from the seed alone."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[workload](rng, workdir, quick), KERNELS[workload]
