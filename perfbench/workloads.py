"""The benchmark workloads and the independent expectations they are checked
against.

Two workloads, both numpy-heavy so that run-to-run spread stays inside the
bounds on a shared 2-core machine, where host contention slows pure-Python
code about twice as much as numpy code:

- ``certify`` certifies the passing order at H(4,6) through the CLI, then
  runs the homology and Euler oracles on the six instances with N <= 16.
- ``refute`` verifies orders that must fail at a known row, then explores
  k = 4, 5 orders on H(1,3) and on seed-drawn random graphs.

Inputs are drawn from the seed by :func:`make_inputs`, in the harness
process (it may import networkx; the measured worker never does).  A workload
object is built in the worker: its constructor prepares expectations outside
the timed region, :meth:`iteration` makes every timed call through ``call``,
and ``checks`` maps each call label to a function that returns an error (or
None) and a digest of the output.  Digests must repeat across iterations and
with tracing on or off.

Program functions are always looked up as module attributes at call time
(``self.hx.verify_shelling``), so that the tracer's wrappers see the call.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from itertools import combinations
from math import comb
from pathlib import Path
from typing import NamedTuple

WORKLOADS = ("certify", "refute")

ORACLE_INSTANCES = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
EXPLORE_HEX = (1, 3)
EXPLORE_KS = (4, 5)
RANDOM_GRAPHS = 4
RANDOM_VERTICES = 14
RANDOM_EDGE_PROB = 0.5
REFUTE_MN = (3, 4)
REFUTE_MULTI_ORDERS = 3
CERTIFY_MN = (4, 6)


# ---------------------------------------------------------------------------
# closed forms and first-principles checks, independent of hexcut
# ---------------------------------------------------------------------------

def n_vertices(m: int, n: int) -> int:
    return 2 * m + 2 * n + 2 * m * n


def connected_triples(m: int, n: int) -> int:
    return 6 * m * n + 2 * m + 2 * n - 4


def facet_count(m: int, n: int) -> int:
    return comb(n_vertices(m, n), 3) - connected_triples(m, n)


def psi(m: int, n: int) -> int:
    """Spanning facets, the reduced Euler characteristic and the top Betti
    number all equal C(N-1, 2) minus the connected triples."""
    return comb(n_vertices(m, n) - 1, 2) - connected_triples(m, n)


def tail_count(m: int, n: int) -> int:
    return m * n - 2 if m >= 2 else n - 1


def row_violation(seq, j: int) -> int | None:
    """Smallest 1-based i < j at which the shelling condition fails for the
    facet at position j, or None when row j passes.

    Works on complements: F_k meets F_j in all but one vertex iff C_k has
    exactly one element v outside C_j, and then F_j \\ F_k = {v}.  Facet i is
    covered at row j iff one of those v lies in C_i (that is, outside F_i).
    """
    cj = set(seq[j - 1])
    swaps = set()
    for ck in seq[: j - 1]:
        extra = [v for v in ck if v not in cj]
        if len(extra) == 1:
            swaps.add(extra[0])
    for i, ci in enumerate(seq[: j - 1], start=1):
        if swaps.isdisjoint(ci):
            return i
    return None


def first_failure(seq) -> tuple[int, int] | None:
    """The failing pair (i, j) minimal in (j, i), by scanning rows in order."""
    for j in range(2, len(seq) + 1):
        i = row_violation(seq, j)
        if i is not None:
            return i, j
    return None


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# inputs, drawn from the seed in the harness process
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> dict:
    """Seed-drawn inputs.  The reference instance H(4,6) itself does not
    depend on the seed; the boundary samples, the reinsertion sets and the
    random graphs do."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return {"boundary_seeds": {f"{m}x{n}": rng.randrange(2**31)
                                   for m, n in ORACLE_INSTANCES}}
    if workload == "refute":
        import networkx as nx

        tails = range(1, tail_count(*REFUTE_MN) + 1)
        multi = [sorted(rng.sample(tails, rng.choice((2, 3))))
                 for _ in range(REFUTE_MULTI_ORDERS)]
        m, n = EXPLORE_HEX
        explore = [{
            "label": f"hex{m}x{n}",
            "hex": [m, n],
            # H(m, n) is isomorphic to networkx's lattice of n rows of m hexagons
            "counts": _nx_cut_counts(nx.hexagonal_lattice_graph(n, m)),
        }]
        for r in range(RANDOM_GRAPHS):
            verts = range(1, RANDOM_VERTICES + 1)
            edges = [(u, v) for u, v in combinations(verts, 2)
                     if rng.random() < RANDOM_EDGE_PROB]
            g = nx.Graph()
            g.add_nodes_from(verts)
            g.add_edges_from(edges)
            explore.append({"label": f"random{r}", "n_vertices": RANDOM_VERTICES,
                            "edges": edges, "counts": _nx_cut_counts(g)})
        return {"multi": multi, "explore": explore}
    raise ValueError(f"unknown workload {workload!r}")


def _nx_cut_counts(g) -> dict[str, int]:
    """Number of k-subsets inducing a disconnected subgraph, per k."""
    import networkx as nx

    nodes = sorted(g.nodes)
    return {
        str(k): sum(1 for s in combinations(nodes, k)
                    if not nx.is_connected(g.subgraph(s)))
        for k in EXPLORE_KS
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CliRun(NamedTuple):
    rc: int
    path: Path


def _errors(*pairs) -> str | None:
    """First failed (condition, message) pair's message."""
    for ok, message in pairs:
        if not ok:
            return message
    return None


class Workload:
    name = ""

    def __init__(self, program, inputs: dict, tmp: Path):
        self.hx = program.hexcut
        self.cli = program.cli
        self.homology = program.homology
        self.tmp = tmp
        self.checks: dict = {}
        self.setup_errors: list[str] = []

    def run_cli(self, argv: list[str]) -> CliRun:
        return CliRun(self.cli.main(argv), Path(argv[argv.index("--out") + 1]))

    def cli_argv(self, label: str, argv: list[str]) -> list[str]:
        return argv + ["--out", str(self.tmp / f"{label.replace(':', '-')}.out")]

    def expect_formulas(self, m: int, n: int) -> None:
        """hexcut's closed forms must agree with the benchmark's own."""
        if (self.hx.hex_facet_count(m, n), self.hx.spanning_count_formula(m, n)) != (
                facet_count(m, n), psi(m, n)):
            self.setup_errors.append(f"H({m},{n}): hexcut closed forms disagree")

    def iteration(self, call) -> None:
        raise NotImplementedError


def _cli_json(out: CliRun):
    data = out.path.read_bytes()
    return json.loads(data), digest((out.rc, data))


class Certify(Workload):
    """Full certification of the passing order at the reference instance,
    then the homology oracles that back the sphere-wedge claim at N <= 16."""

    name = "certify"

    def __init__(self, program, inputs, tmp):
        super().__init__(program, inputs, tmp)
        m, n = CERTIFY_MN
        self.expect_formulas(m, n)
        mn = ["--m", str(m), "--n", str(n)]
        self.argv = {
            "cli:order": self.cli_argv("cli:order", ["order", *mn, "--force"]),
            "cli:spanning": self.cli_argv(
                "cli:spanning", ["spanning", *mn, "--force", "--jobs", "1"]),
            "cli:euler": self.cli_argv("cli:euler", ["euler", *mn]),
        }
        eta, span, big_n = facet_count(m, n), psi(m, n), n_vertices(m, n)
        t_start = eta - tail_count(m, n) + 1

        def check_order(out):
            data, dg = _cli_json(out)
            order = data["order"]
            return _errors(
                (out.rc == 0, f"exit {out.rc}"),
                (len(order) == eta, f"{len(order)} facets, expected {eta}"),
                (len({tuple(t) for t in order}) == eta, "repeated facets"),
                (data["t_tail_start"] == t_start, f"t_tail_start {data['t_tail_start']}"),
            ), dg

        def check_spanning(out):
            data, dg = _cli_json(out)
            comps = data["spanning_complements"]
            return _errors(
                (out.rc == 0, f"exit {out.rc}"),
                (data["psi"] == span, f"psi {data['psi']}, expected {span}"),
                (data["psi_matches_formula"] is True, "psi_matches_formula false"),
                (len(comps) == span, f"{len(comps)} spanning complements"),
                (all(c[-1] == big_n for c in comps), "spanning complement without N"),
            ), dg

        def check_euler(out):
            text = out.path.read_text()
            return _errors(
                (out.rc == 0, f"exit {out.rc}"),
                (text == f"{span}\n", f"euler {text!r}, expected {span}"),
            ), digest((out.rc, text))

        self.checks.update({"cli:order": check_order, "cli:spanning": check_spanning,
                            "cli:euler": check_euler})

        def check_jobs2(res):
            return _errors((res.ok and res.counterexample is None,
                            f"jobs=2 verdict {res.counterexample}")), digest(res.ok)

        self.checks["verify:jobs2"] = check_jobs2
        self.oracles = OracleChecks(self, inputs["boundary_seeds"])

    def iteration(self, call) -> None:
        for label, argv in self.argv.items():
            call(label, self.run_cli, argv)
        self.oracles.run(call)

    def jobs2_body(self):
        """A timed body verifying the order with two workers; the order is
        built here, outside the timed region (traced run only)."""
        hx = self.hx
        order = hx.shelling_order(hx.enumerate_facets(hx.build_hex_graph(*CERTIFY_MN), 3))
        return lambda call: call("verify:jobs2", hx.verify_shelling, order, jobs=2)


class Refute(Workload):
    """Failing orders, where every verification stops early at a known row,
    then k = 4, 5 exploration (whose orders also fail early)."""

    name = "refute"

    def __init__(self, program, inputs, tmp):
        super().__init__(program, inputs, tmp)
        hx = self.hx
        m, n = REFUTE_MN
        self.expect_formulas(m, n)
        g = hx.build_hex_graph(m, n)
        cx = hx.enumerate_facets(g, 3)
        tail = hx.tail_facets(m, n, g)
        facets = sorted(cx.facets)
        if len(facets) != facet_count(m, n):
            self.setup_errors.append(f"H({m},{n}): {len(facets)} facets")
        tail_comps = [t.complement for t in tail]
        base = [f for f in facets if f not in set(tail_comps)]

        def reinserted(indices):
            chosen = {tail_comps[t - 1] for t in indices}
            seq = sorted(base + list(chosen))
            rest = [t for t in tail if t.complement not in chosen]
            seq += [t.complement for t in rest]
            spot = min(bisect_left(seq, c) for c in chosen) + 1
            return seq, rest, spot

        def expect_fail(seq, j):
            return row_violation(seq, j), j

        self.singles = range(1, len(tail) + 1)
        for t in self.singles:
            seq, _, spot = reinserted([t])
            self._expect_order(f"reinsert:{t}", tuple(seq), spot)
            self._expect_refuted(f"verify:{t}", expect_fail(seq, spot))

        # orders with several tail facets moved back, built here as inputs
        self.multi = []
        for indices in inputs["multi"]:
            seq, rest, spot = reinserted(indices)
            order = hx.ShellingOrder(
                cx=cx, facets=tuple(seq),
                position={f: i + 1 for i, f in enumerate(seq)},
                tail=tuple(rest), base_count=len(seq) - len(rest))
            label = f"multi:{'+'.join(map(str, indices))}"
            self.multi.append((label, order))
            self._expect_refuted(label, expect_fail(seq, spot))

        plain_j = facets.index(min(tail_comps)) + 1
        plain = expect_fail(facets, plain_j)

        def check_cli(out):
            data, dg = _cli_json(out)
            got = tuple(data["counterexample"] or ())
            return _errors(
                (out.rc == 1, f"exit {out.rc}, expected 1"),
                (data["ok"] is False, "plain sorted order reported as a shelling"),
                (got == plain, f"counterexample {got}, expected {plain}"),
            ), dg

        self.checks["cli:verify-plain"] = check_cli
        self.checks["tail_obstruction"] = lambda out: (
            _errors((out is True, f"verify_tail_obstruction returned {out!r}")), digest(out))
        self.checks["build"] = lambda g_out: (
            _errors((g_out.n_vertices == n_vertices(m, n), "wrong vertex count")),
            digest(g_out.edges()))
        self.checks["enumerate"] = lambda cx_out: (
            _errors((cx_out.n_facets == facet_count(m, n), f"{cx_out.n_facets} facets")),
            digest(cx_out.facets))
        self.argv = self.cli_argv(
            "cli:verify-plain",
            ["verify", "--m", str(m), "--n", str(n), "--no-relocate-t", "--jobs", "1"])
        self.explore = ExploreChecks(self, inputs["explore"])

    def _expect_order(self, label, seq, spot):
        def check(out):
            order, got_spot = out
            return _errors(
                (got_spot == spot, f"reinsertion spot {got_spot}, expected {spot}"),
                (order.facets == seq, "reinserted order differs from expectation"),
            ), digest(got_spot)
        self.checks[label] = check

    def _expect_refuted(self, label, expected):
        def check(res):
            return _errors(
                (expected[0] is not None, f"row {expected[1]} passes the brute-force check"),
                (not res.ok, "failing order reported as a shelling"),
                (res.counterexample == expected,
                 f"counterexample {res.counterexample}, expected {expected}"),
            ), digest((res.ok, res.counterexample))
        self.checks[label] = check

    def iteration(self, call) -> None:
        hx = self.hx
        g = call("build", hx.build_hex_graph, *REFUTE_MN)
        cx = call("enumerate", hx.enumerate_facets, g, 3)
        for t in self.singles:
            built = call(f"reinsert:{t}", hx.order_with_tail_reinserted, cx, t)
            call(f"verify:{t}", hx.verify_shelling, built and built[0], jobs=1)
        for label, order in self.multi:
            call(label, hx.verify_shelling, order, jobs=1)
        call("tail_obstruction", hx.verify_tail_obstruction, cx)
        call("cli:verify-plain", self.run_cli, self.argv)
        self.explore.run(call)


class OracleChecks:
    """Homology and Euler oracles on the instances with N <= 16: CLI
    ``homology --wedge``, the exhaustive f-vector and its reduced Euler
    characteristic, and a seeded boundary-of-boundary check."""

    def __init__(self, workload: Workload, boundary_seeds: dict,
                 instances=ORACLE_INSTANCES):
        self.w = workload
        hx = workload.hx
        self.instances = []
        for m, n in instances:
            key = f"{m}x{n}"
            workload.expect_formulas(m, n)
            big_n = n_vertices(m, n)
            cx = hx.enumerate_facets(hx.build_hex_graph(m, n), 3)
            facets = [tuple(v for v in range(1, big_n + 1) if v not in c) for c in cx.facets]
            argv = workload.cli_argv(f"wedge:{key}", [
                "homology", "--m", str(m), "--n", str(n), "--wedge", "--jobs", "1"])
            self.instances.append((m, n, key, argv, facets, boundary_seeds[key]))
            self._expect(m, n, key)

    def _expect(self, m, n, key):
        big_n, span, eta = n_vertices(m, n), psi(m, n), facet_count(m, n)

        def check_wedge(out):
            data, dg = _cli_json(out)
            checks = data["checks"]
            return _errors(
                (out.rc == 0, f"exit {out.rc}"),
                (data["psi"] == span, f"psi {data['psi']}"),
                (all(c["ran"] and c["pass"] for c in checks.values()),
                 f"wedge checks {checks}"),
                (checks["betti"].get("top") == span, "top Betti number differs from psi"),
                (checks["spanning_eq_psi"].get("computed") == span, "spanning count"),
            ), dg

        def check_fvector(fv):
            # girth 6: every subset of at most N-4 vertices is a face
            expected = tuple(comb(big_n, s) for s in range(big_n - 3)) + (eta,)
            return _errors((fv.counts == expected, f"f-vector {fv.counts}")), digest(fv.counts)

        self.w.checks.update({
            f"wedge:{key}": check_wedge,
            f"build:{key}": lambda g: (
                _errors((g.n_vertices == big_n, "wrong vertex count")), digest(g.edges())),
            f"enumerate:{key}": lambda cx: (
                _errors((cx.n_facets == eta, f"{cx.n_facets} facets, expected {eta}")),
                digest(cx.facets)),
            f"fvector:{key}": check_fvector,
            f"euler:{key}": lambda e: (
                _errors((e == span, f"reduced Euler {e}, expected psi {span}")), digest(e)),
            f"boundary:{key}": lambda ok: (
                _errors((ok is True, "boundary of a boundary is not zero")), digest(ok)),
        })

    def run(self, call) -> None:
        hx = self.w.hx
        for m, n, key, argv, facets, bseed in self.instances:
            call(f"wedge:{key}", self.w.run_cli, argv)
            g = call(f"build:{key}", hx.build_hex_graph, m, n)
            cx = call(f"enumerate:{key}", hx.enumerate_facets, g, 3)
            fv = call(f"fvector:{key}", hx.f_vector, cx, mode="exhaustive")
            call(f"euler:{key}", hx.reduced_euler_from_fvector, fv)
            call(f"boundary:{key}", self.w.homology.boundary_composition_is_zero,
                 facets, n_vertices(m, n), samples=64, seed=bseed)


class ExploreChecks:
    """``verify_k_cut_order`` for each k in EXPLORE_KS on H(1,3) and the
    random graphs; counts come from networkx, verdicts from a brute-force
    scan of the revlex order."""

    def __init__(self, workload: Workload, specs: list[dict]):
        self.w = workload
        hx = workload.hx
        self.calls = []
        for spec in specs:
            if "hex" in spec:
                graph = hx.build_hex_graph(*spec["hex"])
            else:
                graph = hx.Graph(spec["n_vertices"], spec["edges"])
            for k in EXPLORE_KS:
                label = f"explore:{spec['label']}:k{k}"
                seq = sorted(hx.enumerate_facets(graph, k).facets)
                self.calls.append((label, graph, k))
                self._expect(label, spec["counts"][str(k)], first_failure(seq))

    def _expect(self, label, count, verdict):
        def check(v):
            return _errors(
                (v.n_facets == count, f"{v.n_facets} facets, networkx counts {count}"),
                (v.ok == (verdict is None), f"verdict ok={v.ok}, expected {verdict}"),
                (v.counterexample == verdict,
                 f"counterexample {v.counterexample}, expected {verdict}"),
            ), digest((v.n_facets, v.ok, v.counterexample))
        self.w.checks[label] = check

    def run(self, call) -> None:
        for label, graph, k in self.calls:
            call(label, self.w.hx.verify_k_cut_order, graph, k, jobs=1)


CLASSES = {cls.name: cls for cls in (Certify, Refute)}
