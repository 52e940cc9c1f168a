"""The three benchmark workloads, their inputs and their output checks.

Each workload is one pass: a list of operations run in order, each timed
as one request, with its outputs checked after the timed region.  Expected
values are pinned from the seed commit or derived here, independently of
``src/``: class counts from the Otter and dihedral-necklace formulas, index
values from a degree sum over the bench's own edge lists.

- verify-claims: the two exhaustive ordering claims through the CLI entry
  point (batch, one client, two requests per pass).
- certify: the self-checks behind the verdicts -- labeled oracle against the
  generators, lemma suite, closed-form audit (batch, one client, three
  requests per pass).
- graph-io: a closed loop with one client sending seeded per-graph requests
  (compute, canonicalise, transform reduce) as graph6 or edge-list text.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import random
import time
from dataclasses import dataclass, field
from math import gcd
from types import SimpleNamespace

import hyperzagreb.cli
from hyperzagreb import verify
from hyperzagreb.canon import canonical_code
from hyperzagreb.codec import CodecError, decode_graph6, encode_graph6, parse_edgelist
from hyperzagreb.enumeration import labeled_oracle, trees, unicyclic_graphs
from hyperzagreb.graphs import classical_indices, hyper_zagreb
from hyperzagreb.transforms import reduce_to_single_attachment


def library_api() -> SimpleNamespace:
    """The entry points the bench calls; the tracer wraps these attributes."""
    return SimpleNamespace(
        cli_main=hyperzagreb.cli.main,
        labeled_oracle=labeled_oracle,
        trees=trees,
        unicyclic_graphs=unicyclic_graphs,
        canonical_code=canonical_code,
        decode_graph6=decode_graph6,
        parse_edgelist=parse_edgelist,
        encode_graph6=encode_graph6,
        hyper_zagreb=hyper_zagreb,
        classical_indices=classical_indices,
        reduce_to_single_attachment=reduce_to_single_attachment,
    )


# ---------------------------------------------------------------------------
# Counting formulas (independent of the enumerators they certify)
# ---------------------------------------------------------------------------


def rooted_tree_counts(n_max: int) -> list[int]:
    """r[k] = rooted unlabeled trees on k vertices (Cayley's recurrence)."""
    r = [0, 1]
    for n in range(1, n_max):
        acc = 0
        for k in range(1, n + 1):
            acc += sum(d * r[d] for d in range(1, k + 1) if k % d == 0) * r[n - k + 1]
        r.append(acc // n)
    return r


def free_tree_count(n: int) -> int:
    """Otter's formula: rooted trees minus (vertex, edge) dissimilar pairs."""
    if n <= 1:
        return 1
    r = rooted_tree_counts(n)
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    symmetric_edge = r[n // 2] if n % 2 == 0 else 0
    return r[n] - (pairs - symmetric_edge) // 2


def unicyclic_count(n: int) -> int:
    """Connected unicyclic classes: dihedral necklaces of rooted trees.

    For each cycle length m, Burnside over the dihedral group D_m acting on
    the cycle positions, each bead weighted by the rooted-tree series R(x),
    counts the necklaces of total weight n.
    """
    r = rooted_tree_counts(n)

    def series(k: int) -> list[int]:  # R(x^k), truncated at degree n
        out = [0] * (n + 1)
        for i in range(1, n // k + 1):
            out[i * k] = r[i]
        return out

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(n + 1 - i):
                    out[i + j] += ai * b[j]
        return out

    def power(a: list[int], e: int) -> list[int]:
        out = [1] + [0] * n
        for _ in range(e):
            out = mul(out, a)
        return out

    def totient(d: int) -> int:
        return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)

    total = 0
    for m in range(3, n + 1):
        fixed = sum(totient(d) * power(series(d), m // d)[n] for d in range(1, m + 1) if m % d == 0)
        if m % 2:
            fixed += m * mul(series(1), power(series(2), (m - 1) // 2))[n]
        else:
            fixed += m // 2 * (
                power(series(2), m // 2)[n]
                + mul(power(series(1), 2), power(series(2), (m - 2) // 2))[n]
            )
        total += fixed // (2 * m)
    return total


# Pinned from the seed commit; the formulas above must reproduce them.
UNICYCLIC_N, UNICYCLIC_CLASSES = 15, 110_381
TREES_N, TREE_CLASSES = 18, 123_867
ORACLE_TREES_N, ORACLE_TREE_LABELED, ORACLE_TREE_CLASSES = 8, 262_144, 23
ORACLE_UNI_N, ORACLE_UNI_LABELED, ORACLE_UNI_CLASSES = 7, 68_295, 33

# sha256 of the CLI's stdout at the seed commit.  The unicyclic verdict is
# the documented "fail" (exit 1): C_3(1,T^1_{n-3}) sits inside the chain.
VERIFY_CLAIMS_CALLS = (
    (["verify", "unicyclic", str(UNICYCLIC_N), "--format", "json"], 1, "fail",
     "541b1140719aed6225ece136501cf0b40a876785808e41eada2a7dc827104629"),
    (["verify", "trees", str(TREES_N), "--format", "json"], 0, "pass",
     "342acb8b5c3fa04ed414035f4e953d8942d896fc91e3478c63b5782bbae978b8"),
)
CLOSED_FORMS_ARGV = ["verify", "closed-forms", "15..45", "--format", "json"]
CLOSED_FORMS_SHA256 = "ed6d772a921003280be29b0fc3c394dfd417c8a419176122fcd91ff52d3085de"
CLOSED_FORMS_CASES = 620  # 20 catalog rows x 31 orders
LEMMA_TRIALS = 10_000
LEMMA_CHECKED = {
    "attachment-shift": LEMMA_TRIALS,
    "join-vs-identify": 4096,
    "cycle-shrink": 1128,
    "star-max-trees": 986,
    "single-attachment-max": 1040,
    "tree-chain": 107,
    "unicyclic-chain": 99,
}


def formula_mismatches() -> list[str]:
    """Pinned class counts the counting formulas do not reproduce."""
    pinned = (
        (unicyclic_count(UNICYCLIC_N), UNICYCLIC_CLASSES, "unicyclic n=15"),
        (free_tree_count(TREES_N), TREE_CLASSES, "trees n=18"),
        (free_tree_count(ORACLE_TREES_N), ORACLE_TREE_CLASSES, "trees n=8"),
        (unicyclic_count(ORACLE_UNI_N), ORACLE_UNI_CLASSES, "unicyclic n=7"),
    )
    return [f"{what}: formula {got} != pinned {want}" for got, want, what in pinned if got != want]


# ---------------------------------------------------------------------------
# Pass bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    """What one pass did: per-request latencies, items, failed checks."""

    items: int = 0
    request_start_ns: list[int] = field(default_factory=list)
    request_ns: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.request_ns)

    def timed(self, start_ns: int, end_ns: int) -> None:
        """Record one request's start and duration (perf_counter_ns)."""
        self.request_start_ns.append(start_ns)
        self.request_ns.append(end_ns - start_ns)

    def record(self, problems: list[str]) -> None:
        """Count one failed operation when its checks found problems."""
        if problems:
            self.failures.append("; ".join(problems))


def _run_cli(api, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli_main(argv)
    return code, buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# verify-claims
# ---------------------------------------------------------------------------


def _counting(fn, counter: dict, key: str):
    """Wrap a generator function to count what it yields."""

    def counted(*args, **kwargs):
        for item in fn(*args, **kwargs):
            counter[key] += 1
            yield item

    return counted


def check_verify_claim(
    argv: list[str], code: int, out: str, classes: int,
    want_code: int, want_verdict: str, want_sha: str, want_classes: int,
) -> list[str]:
    """Failed checks of one `verify` call against its pinned outcome."""
    problems = []
    name = " ".join(argv[:3])
    if code != want_code:
        problems.append(f"{name}: exit {code}, expected {want_code}")
    if classes != want_classes:
        problems.append(f"{name}: {classes} classes yielded, expected {want_classes}")
    if _sha256(out) != want_sha:
        problems.append(f"{name}: stdout sha256 {_sha256(out)} != pinned {want_sha}")
    try:
        verdict = json.loads(out)["verdict"]
    except (ValueError, KeyError, TypeError):
        verdict = None
    if verdict != want_verdict:
        problems.append(f"{name}: verdict {verdict!r}, expected {want_verdict!r}")
    return problems


def verify_claims_pass(api, seed: int) -> PassResult:
    """`verify unicyclic 15` then `verify trees 18`; inputs do not use the seed."""
    del seed
    yielded = {"unicyclic": 0, "trees": 0}
    verify.unicyclic_graphs = _counting(verify.unicyclic_graphs, yielded, "unicyclic")
    verify.trees = _counting(verify.trees, yielded, "trees")
    want_classes = {"unicyclic": UNICYCLIC_CLASSES, "trees": TREE_CLASSES}
    res = PassResult(items=UNICYCLIC_CLASSES + TREE_CLASSES)
    runs = []
    for argv, *_ in VERIFY_CLAIMS_CALLS:
        t0 = time.perf_counter_ns()
        code, out = _run_cli(api, argv)
        res.timed(t0, time.perf_counter_ns())
        runs.append((code, out))
    stdout_bytes = 0
    for (argv, want_code, want_verdict, want_sha), (code, out) in zip(VERIFY_CLAIMS_CALLS, runs):
        klass = argv[1]
        res.record(check_verify_claim(
            argv, code, out, yielded[klass],
            want_code, want_verdict, want_sha, want_classes[klass],
        ))
        stdout_bytes += len(out.encode())
    res.counts["cli.stdout_bytes"] = stdout_bytes
    return res


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def check_lemmas(code: int, out: str, seed: int) -> list[str]:
    """Every lemma check ran its fixed number of cases with no violation."""
    if code != 0:
        return [f"verify lemmas: exit {code}"]
    try:
        report = json.loads(out)
        checks = {c["name"]: (c["checked"], c["violations"]) for c in report["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify lemmas: unreadable JSON ({exc})"]
    problems = []
    if report.get("seed") != seed or report.get("passed") is not True:
        problems.append(f"verify lemmas: seed {report.get('seed')} passed {report.get('passed')}")
    if set(checks) != set(LEMMA_CHECKED):
        problems.append(f"verify lemmas: checks {sorted(checks)}")
    for name, want in LEMMA_CHECKED.items():
        checked, violations = checks.get(name, (None, None))
        if checked != want or violations != 0:
            problems.append(f"lemma {name}: checked {checked} (want {want}), violations {violations}")
    return problems


def certify_pass(api, seed: int) -> PassResult:
    """Labeled oracle vs generators, lemma suite, closed-form audit."""
    res = PassResult(
        items=ORACLE_TREE_LABELED + ORACLE_UNI_LABELED
        + sum(LEMMA_CHECKED.values()) + CLOSED_FORMS_CASES
    )
    oracle_cases = (
        (ORACLE_TREES_N, "trees", api.trees, ORACLE_TREE_LABELED, ORACLE_TREE_CLASSES),
        (ORACLE_UNI_N, "unicyclic", api.unicyclic_graphs, ORACLE_UNI_LABELED, ORACLE_UNI_CLASSES),
    )
    # Both oracle certifications form one request, so a pass has three
    # request kinds of distinct cost and the median lands inside one kind.
    t0 = time.perf_counter_ns()
    certified = []
    for n, kind, generate, _, _ in oracle_cases:
        oracle = api.labeled_oracle(n, kind)
        oracle_codes = sorted(api.canonical_code(g) for g in oracle.classes)
        generated = sorted(api.canonical_code(g) for g in generate(n))
        certified.append((oracle, oracle_codes, generated))
    res.timed(t0, time.perf_counter_ns())
    problems = []
    for (n, kind, _, want_labeled, want_classes), (oracle, oracle_codes, generated) in zip(
        oracle_cases, certified
    ):
        if oracle.labeled_total != want_labeled or len(oracle_codes) != want_classes:
            problems.append(
                f"oracle {kind} n={n}: {oracle.labeled_total} labeled, "
                f"{len(oracle_codes)} classes; expected {want_labeled}, {want_classes}"
            )
        if oracle_codes != generated:
            problems.append(f"oracle {kind} n={n}: classes differ from the generator's")
    res.record(problems)

    lemma_argv = ["verify", "lemmas", "--seed", str(seed), "--trials", str(LEMMA_TRIALS),
                  "--format", "json"]
    outputs = []
    for argv in (lemma_argv, CLOSED_FORMS_ARGV):
        t0 = time.perf_counter_ns()
        outputs.append(_run_cli(api, argv))
        res.timed(t0, time.perf_counter_ns())
    (lemma_code, lemma_out), (audit_code, audit_out) = outputs
    res.record(check_lemmas(lemma_code, lemma_out, seed))
    if audit_code != 0 or _sha256(audit_out) != CLOSED_FORMS_SHA256:
        res.record([f"verify closed-forms: exit {audit_code}, sha256 {_sha256(audit_out)}"])
    res.counts["cli.stdout_bytes"] = len(lemma_out.encode()) + len(audit_out.encode())
    return res


# ---------------------------------------------------------------------------
# graph-io
# ---------------------------------------------------------------------------

GRAPHIO_PAIRS = 1900  # each graph is sent twice: as generated and relabeled
GRAPHIO_MALFORMED = 200  # about 5% of the 4000 requests
GRAPHIO_MIN_N, GRAPHIO_MAX_N = 8, 48
MALFORMED_KINDS = ("truncated-graph6", "self-loop", "duplicate-edge", "vertex-out-of-range")
# (kind, op) by share: half trees, half unicyclic; reduce takes unicyclic
# input only.  Pairs take their order and their slot here in turn, so every
# seed holds the same work mix and seeds differ only in the graphs drawn.
GRAPHIO_MIX = (
    (("tree", "compute"),) * 5 + (("tree", "canon"),) * 5
    + (("unicyclic", "compute"),) * 3 + (("unicyclic", "canon"),) * 3
    + (("unicyclic", "reduce"),) * 4
)


@dataclass(frozen=True)
class Request:
    """One graph-io request and the answer the bench expects for it."""

    pair: int  # twins share a pair id; malformed requests have -1
    op: str  # "compute" | "canon" | "reduce" | "malformed"
    fmt: str  # "graph6" | "edgelist"
    text: str
    n: int
    m: int
    hm: int  # expected index; for "reduce", that of the chain's last graph


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform labeled tree on n >= 2 vertices from a random Pruefer code."""
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def degree_sum_hm(n: int, edges: list[tuple[int, int]]) -> int:
    """Hyper-Zagreb index straight from its definition."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return sum((degree[u] + degree[v]) ** 2 for u, v in edges)


def cycle_length(n: int, edges: list[tuple[int, int]]) -> int:
    """Length of the one cycle of a connected unicyclic edge list."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    leaves = [v for v in range(n) if len(adj[v]) == 1]
    left = n
    while leaves:
        v = leaves.pop()
        left -= 1
        for w in adj[v]:
            adj[w].discard(v)
            if len(adj[w]) == 1:
                leaves.append(w)
        adj[v].clear()
    return left


def one_star_hm(m: int, n: int) -> int:
    """Index of C_m with all n - m spare vertices pendant at one cycle vertex."""
    edges = [(i, (i + 1) % m) for i in range(m)] + [(0, v) for v in range(m, n)]
    return degree_sum_hm(n, edges)


def write_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 text for n <= 62: upper triangle column by column, 6 bits a char."""
    length = n * (n - 1) // 2
    length += -length % 6
    word = 0  # bit i from the top is pair (u, v), u < v, at v(v-1)/2 + u
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        word |= 1 << (length - 1 - v * (v - 1) // 2 - u)
    body = "".join(chr(63 + (word >> shift & 63)) for shift in range(length - 6, -1, -6))
    return chr(63 + n) + body


def write_edgelist(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> str:
    """'n m' header then one 'u v' line per edge, shuffled, sometimes commented."""
    rows = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(rows)
    lines = [f"{n} {len(rows)}"]
    if rng.random() < 0.3:
        lines.insert(rng.randrange(2), "# seeded request")
    lines.extend(f"{u} {v}" for u, v in rows)
    return "\n".join(lines) + "\n"


def _malformed(rng: random.Random, kind: str) -> Request:
    n = rng.randint(GRAPHIO_MIN_N, GRAPHIO_MAX_N)
    edges = random_tree_edges(rng, n)
    if kind == "truncated-graph6":
        text = write_graph6(n, edges)[:-1]
        return Request(-1, "malformed", "graph6", text, n, len(edges), 0)
    i = rng.randrange(len(edges))
    if kind == "self-loop":
        edges[i] = (edges[i][0], edges[i][0])
    elif kind == "duplicate-edge":
        j = (i + 1) % len(edges)
        edges[j] = edges[i][::-1]
    else:  # vertex-out-of-range
        edges[i] = (edges[i][0], n)
    return Request(-1, "malformed", "edgelist", write_edgelist(rng, n, edges), n, len(edges), 0)


def graphio_corpus(seed: int) -> list[Request]:
    """The seeded request sequence; the same seed gives the same bytes."""
    rng = random.Random(seed)
    requests = []
    orders = GRAPHIO_MAX_N - GRAPHIO_MIN_N + 1
    for pair in range(GRAPHIO_PAIRS):
        n = GRAPHIO_MIN_N + pair % orders
        kind, op = GRAPHIO_MIX[pair // orders % len(GRAPHIO_MIX)]
        edges = random_tree_edges(rng, n)
        if kind == "unicyclic":
            present = {frozenset(e) for e in edges}
            while True:
                u, v = rng.sample(range(n), 2)
                if frozenset((u, v)) not in present:
                    break
            edges.append((u, v))
        hm = one_star_hm(cycle_length(n, edges), n) if op == "reduce" else degree_sum_hm(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        for twin in (edges, [(perm[u], perm[v]) for u, v in edges]):
            if rng.random() < 0.5:
                fmt, text = "graph6", write_graph6(n, twin)
            else:
                fmt, text = "edgelist", write_edgelist(rng, n, twin)
            requests.append(Request(pair, op, fmt, text, n, len(edges), hm))
    for _ in range(GRAPHIO_MALFORMED):
        requests.append(_malformed(rng, rng.choice(MALFORMED_KINDS)))
    rng.shuffle(requests)
    return requests


def serve(api, req: Request):
    """One request in library form, as `compute`, a canonical code, or
    `transform reduce` would answer it."""
    try:
        g = api.decode_graph6(req.text) if req.fmt == "graph6" else api.parse_edgelist(req.text)
    except CodecError as exc:
        return ("rejected", str(exc))
    if req.op == "reduce":
        return [(api.encode_graph6(x), api.hyper_zagreb(x)) for x in api.reduce_to_single_attachment(g)]
    if req.op == "canon":
        return api.canonical_code(g)
    zi = api.classical_indices(g)
    return (g.n, g.num_edges, api.hyper_zagreb(g), zi.m2, zi.f)


def check_reply(req: Request, reply) -> str | None:
    """Why a reply is wrong, or None.  Twin codes are compared separately."""
    if req.op == "malformed":
        return None if isinstance(reply, tuple) and reply[0] == "rejected" else "malformed input accepted"
    if isinstance(reply, tuple) and reply[0] == "rejected":
        return f"valid input rejected: {reply[1]}"
    if req.op == "compute":
        n, m, hm, m2, f = reply
        if (n, m, hm) != (req.n, req.m, req.hm) or hm != f + 2 * m2:
            return f"compute: got n={n} m={m} hm={hm} (f+2*m2={f + 2 * m2}), expected hm={req.hm}"
    elif req.op == "reduce":
        hms = [hm for _, hm in reply]
        if any(a >= b for a, b in zip(hms, hms[1:])) or hms[-1] != req.hm:
            return f"reduce: chain {hms}, expected strictly increasing to {req.hm}"
    return None


def graphio_pass(api, seed: int) -> PassResult:
    """Closed loop, one client: each request is sent after the last reply."""
    corpus = graphio_corpus(seed)
    res = PassResult(items=len(corpus))
    replies = []
    clock = time.perf_counter_ns
    for req in corpus:
        t0 = clock()
        replies.append(serve(api, req))
        res.timed(t0, clock())
    twin_codes: dict[int, list[bytes]] = {}
    for req, reply in zip(corpus, replies):
        problem = check_reply(req, reply)
        if problem:
            res.failures.append(problem)
        elif req.op == "canon":
            twin_codes.setdefault(req.pair, []).append(reply)
    for pair, codes in twin_codes.items():
        if len(codes) == 2 and codes[0] != codes[1]:
            res.failures.append(f"canon: relabeled twins of pair {pair} got different codes")
    return res


WORKLOADS = {
    "verify-claims": verify_claims_pass,
    "certify": certify_pass,
    "graph-io": graphio_pass,
}
