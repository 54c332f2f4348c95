"""Command-line interface.

Subcommands: graph, facets, order, verify, spanning, formulas, euler,
homology, explore.  Exit codes: 0 pass, 1 mathematical check failed,
2 usage error, 3 resource guard.  All outputs are deterministic: equal
inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import lru_cache

from . import __version__
from .cutcomplex import (
    RowBlocks,
    check_subset_count,
    enumerate_facets,
    facets_to_csv,
    facets_to_json_dict,
    hex_cut_complex,
    hex_facet_count,
    induced_p3_count,
)
from .errors import HexCutError, InvalidParams, ResourceGuard
from .hexgraph import (
    build_hex_graph,
    graph_to_dot,
    graph_to_edge_text,
    graph_to_json_dict,
    hex_vertex_count,
    validate_structure,
)
from .homology import (
    betti_numbers,
    reduced_euler_closed,
    wedge_check,
    wedge_verdict_to_json_dict,
)
from .shelling import (
    VerifyResult,
    non_spanning_pair_table,
    shelling_order,
    spanning_count_formula,
    spanning_facets,
    spanning_report_to_csv,
    spanning_report_to_json_dict,
    stream_shelling,
    streamed_order_to_json_dict,
    tail_facet_count,
    verify_k_cut_order,
    verify_shelling,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _envelope(args, payload: dict) -> dict:
    out = {
        "m": getattr(args, "m", None),
        "n": getattr(args, "n", None),
        "k": getattr(args, "k", 3),
        "tool_version": __version__,
    }
    out.update(payload)
    return out


@contextmanager
def _output(args):
    """The file named by ``--out``, or stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str) -> None:
    with _output(args) as fh:
        fh.write(text)


@lru_cache(maxsize=8)
def _rows_template(width: int, rows: int) -> str:
    """The ``%d`` template of ``rows`` rows of ``width`` ints, as
    ``json.dumps(..., indent=2)`` writes a list of them one level deep."""
    row = "    [\n" + ",\n".join(["      %d"] * width) + "\n    ]"
    return ",\n".join([row] * rows)


def _write_rows(fh, rows: RowBlocks) -> None:
    """The rows of ``rows`` as ``json.dumps`` writes the list of them one
    level deep: one ``%`` of the row template per block.  No row at all
    writes ``[]``."""
    head = "[\n"
    for block in rows:
        if len(block):
            flat = tuple(block.ravel().tolist())
            fh.write(head + _rows_template(block.shape[1], len(block)) % flat)
            head = ",\n"
    fh.write("[]" if head == "[\n" else "\n  ]")


def _write_json(fh, obj) -> None:
    """The bytes of ``json.dump(obj, fh, indent=2)``, where a
    :class:`hexcut.cutcomplex.RowBlocks` stands for the list of its rows.
    A dict with string keys is written key by key: each RowBlocks value,
    the int32 arrays an export hands over, through :func:`_write_rows`, any
    other value through ``json.dumps`` re-indented one level.  So the rows
    of a large document are written a block at a time, never held as one
    string or as tuples, and the pure-Python encoder never walks them."""
    if not (isinstance(obj, dict) and obj and set(map(type, obj)) == {str}):
        json.dump(obj, fh, indent=2)
        return
    fh.write("{")
    for i, (key, value) in enumerate(obj.items()):
        fh.write(f"{',' if i else ''}\n  {json.dumps(key)}: ")
        if isinstance(value, RowBlocks):
            _write_rows(fh, value)
        else:
            fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
    fh.write("\n}")


def _emit_json(args, payload: dict) -> None:
    with _output(args) as fh:
        _write_json(fh, _envelope(args, payload))
        fh.write("\n")


def _add_common(p, with_k=False, guarded=True) -> None:
    p.add_argument("--m", type=int, required=True, help="hexagon columns")
    p.add_argument("--n", type=int, required=True, help="hexagon rows")
    if with_k:
        p.add_argument("--k", type=int, default=3, help="cut size (default 3)")
    p.add_argument("--out", help="write output to this file instead of stdout")
    if guarded:
        p.add_argument("--force", action="store_true", help="override resource guards")


def _add_jobs(p) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")


def cmd_graph(args) -> int:
    g = build_hex_graph(args.m, args.n, validate=False)
    report = validate_structure(g)
    if args.format == "edges":
        _emit(args, graph_to_edge_text(g))
    elif args.format == "dot":
        _emit(args, graph_to_dot(g))
    else:
        _emit_json(args, graph_to_json_dict(g))
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_facets(args) -> int:
    cx = hex_cut_complex(args.m, args.n, args.k, args.force)
    if args.format == "csv":
        _emit(args, facets_to_csv(cx))
    else:
        _emit_json(args, facets_to_json_dict(cx))
    return EXIT_OK


def _hex_graph(args):
    """H(m, n), built only after the subset guard on its C(N, 3) candidate
    triples passes, as :func:`hexcut.cutcomplex.hex_cut_complex` checks."""
    check_subset_count(hex_vertex_count(args.m, args.n), 3, args.force)
    return build_hex_graph(args.m, args.n)


def _materialised_order(g, relocate_tail: bool = True):
    return shelling_order(enumerate_facets(g, 3), relocate_tail=relocate_tail)


def cmd_order(args) -> int:
    _emit_json(args, streamed_order_to_json_dict(_hex_graph(args), not args.no_relocate_t))
    return EXIT_OK


def cmd_verify(args) -> int:
    # the relocated order is streamed; any order the stream does not pass,
    # and the plain sorted order, are verified materialised
    g = _hex_graph(args)
    streamed = None if args.no_relocate_t else stream_shelling(g)
    if streamed is not None:
        eta = streamed.n_facets
        res = VerifyResult.passed(eta, args.jobs)
    else:
        order = _materialised_order(g, not args.no_relocate_t)
        res, eta = verify_shelling(order, jobs=args.jobs), order.n_facets
    payload = {
        "ok": res.ok,
        "counterexample": res.counterexample,
        "n_facets": eta,
        "pairs_checked": res.pairs_checked,
        "relocated_tail": not args.no_relocate_t,
    }
    _emit_json(args, payload)
    return EXIT_OK if res.ok else EXIT_CHECK_FAILED


def cmd_spanning(args) -> int:
    g = _hex_graph(args)
    report = stream_shelling(g)
    if report is None:
        order = _materialised_order(g)
        res = verify_shelling(order, jobs=args.jobs)
        if not res.ok:
            _emit_json(args, {"ok": False, "counterexample": res.counterexample})
            return EXIT_CHECK_FAILED
        report = spanning_facets(order)
    expected = spanning_count_formula(args.m, args.n)
    computed_pairs = set(report.non_spanning_pairs)
    table_pairs = {(x, y) for x, y, _ in non_spanning_pair_table(args.m, args.n)}
    diff = {
        "only_computed": sorted(computed_pairs - table_pairs),
        "only_table": sorted(table_pairs - computed_pairs),
    }
    payload = spanning_report_to_json_dict(report)
    payload["psi_formula"] = expected
    payload["psi_matches_formula"] = report.psi == expected
    payload["table_matches"] = not diff["only_computed"] and not diff["only_table"]
    payload["table_diff"] = diff
    if args.format == "csv":
        _emit(args, spanning_report_to_csv(report))
    else:
        _emit_json(args, payload)
    # the computed spanning count is the ground truth; a table diff alone
    # is reported but does not fail the run
    return EXIT_OK if report.psi == expected else EXIT_CHECK_FAILED


def cmd_formulas(args) -> int:
    m, n = args.m, args.n
    N = hex_vertex_count(m, n)
    payload = {
        "vertices": N,
        "top_dimension": N - 4,
        "induced_p3": induced_p3_count(m, n),
        "facets": hex_facet_count(m, n),
        "tail_facets": tail_facet_count(m, n),
        "spanning": spanning_count_formula(m, n),
        "note": (
            "the eight non-spanning families sum to 6mn+2m+2n-4 "
            "(= (6m+2)n + (2m-4)); the alternative total 6mn+2m+2n-6 "
            "is inconsistent with that sum"
        ),
    }
    if args.format == "text":
        _emit(args, "".join(f"{key:<15}{value}\n"
                            for key, value in payload.items() if key != "note"))
    else:
        _emit_json(args, payload)
    return EXIT_OK


def cmd_euler(args) -> int:
    value = reduced_euler_closed(args.m, args.n)
    expected = spanning_count_formula(args.m, args.n)
    if args.format == "text":
        _emit(args, f"{value}\n")
    else:
        _emit_json(args, {"reduced_euler": value, "psi_formula": expected,
                          "matches": value == expected})
    return EXIT_OK if value == expected else EXIT_CHECK_FAILED


def cmd_homology(args) -> int:
    if args.wedge:
        verdict = wedge_check(args.m, args.n, force=args.force)
        _emit_json(args, wedge_verdict_to_json_dict(verdict))
        return EXIT_OK if verdict.all_ran_pass else EXIT_CHECK_FAILED
    cx = hex_cut_complex(args.m, args.n, 3, args.force)
    bv = betti_numbers(cx, force=args.force)
    payload = {
        "betti": {str(dim): bv.b(dim) for dim in range(-1, bv.dim + 1)},
        "top_dimension": cx.n_vertices - 4,
        "psi_formula": spanning_count_formula(args.m, args.n),
    }
    _emit_json(args, payload)
    return EXIT_OK


def cmd_explore(args) -> int:
    check_subset_count(hex_vertex_count(args.m, args.n), args.k, args.force)
    g = build_hex_graph(args.m, args.n)
    verdict = verify_k_cut_order(g, args.k, rule=args.rule, jobs=args.jobs)
    payload = {
        "rule": verdict.rule,
        "n_facets": verdict.n_facets,
        "ok": verdict.ok,
        "counterexample": verdict.counterexample,
        "relocated": verdict.relocated,
    }
    _emit_json(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcut",
        description="hexagonal grid graphs, 3-cut complexes, shelling verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build and export the graph")
    _add_common(p, guarded=False)
    p.add_argument("--format", choices=["edges", "dot", "json"], default="edges")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("facets", help="enumerate facet complements")
    _add_common(p, with_k=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("order", help="export the candidate shelling order")
    _add_common(p)
    p.add_argument("--no-relocate-t", action="store_true",
                   help="keep tail facets at their sorted positions")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("verify", help="verify the shelling condition pairwise")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--no-relocate-t", action="store_true",
                   help="keep tail facets at their sorted positions")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spanning", help="spanning facet report")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_spanning)

    p = sub.add_parser("formulas", help="closed-form counts")
    _add_common(p, guarded=False)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_formulas)

    p = sub.add_parser("euler", help="reduced Euler characteristic (closed form)")
    _add_common(p, guarded=False)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("homology", help="reduced GF(2) Betti numbers")
    _add_common(p)
    p.add_argument("--wedge", action="store_true",
                   help="emit the aggregated sphere-wedge verdict instead")
    _add_jobs(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("explore", help="mechanical k-cut order check, any k")
    _add_common(p, with_k=True)
    p.add_argument("--rule", choices=["revlex", "revlex-with-neighborhood-tail"],
                   default="revlex")
    _add_jobs(p)
    p.set_defaults(func=cmd_explore)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads, built once per process: parsing
    leaves it as it was, and each call gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # --jobs changes no result, but every command that takes it refuses
        # a count below one before doing any work
        if getattr(args, "jobs", 1) < 1:
            raise InvalidParams(f"jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except ResourceGuard as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvalidParams as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HexCutError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
