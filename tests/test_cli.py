"""Command-line surface: formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hexcut
from hexcut import build_hex_graph, cutcomplex, shelling, wedge_check
from hexcut import cli
from hexcut.cli import main
from hexcut.cutcomplex import RowBlocks

from conftest import listed, oracle_full_facets, oracle_row_violation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cached_parser_answers_like_a_fresh_one(capsysbinary):
    # a usage error, --version, then two valid commands: one parser per
    # process gives the bytes and exit codes of a parser built per call
    commands = [["graph", "--m", "1"], ["--version"],
                ["graph", "--m", "1", "--n", "2", "--format", "dot"],
                ["formulas", "--m", "2", "--n", "3"]]

    def outcomes(fresh):
        seen = []
        for argv in commands:
            if fresh:
                cli._parser.cache_clear()
            code = main(argv)
            captured = capsysbinary.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    cli._parser.cache_clear()
    cached = outcomes(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in cached] == [2, 0, 0, 0]
    assert cached[1][1] == f"{hexcut.__version__}\n".encode()
    assert cached == outcomes(fresh=True)


def test_graph_edges_smallest(capsys):
    code, out = run(capsys, "graph", "--m", "1", "--n", "1", "--format", "edges")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_graph_json_4_6(capsys):
    code, out = run(capsys, "graph", "--m", "4", "--n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 68
    assert doc["tool_version"]
    assert [11, 47] in doc["edges"]


def test_graph_dot(capsys):
    code, out = run(capsys, "graph", "--m", "1", "--n", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph ") and out.rstrip().endswith("}")


def test_usage_errors(capsys):
    assert main(["graph", "--m", "0", "--n", "1"]) == 2
    assert main(["graph", "--m", "1"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["spanning", "--m", "1", "--n", "2", "--no-relocate-t"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["graph", "formulas", "euler"])
def test_force_only_on_guarded_commands(capsys, command):
    # these commands walk no subsets and build no bitmap, so no guard runs
    assert main([command, "--m", "1", "--n", "1"]) == 0
    assert main([command, "--m", "1", "--n", "1", "--force"]) == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify"], ["spanning"], ["explore"], ["homology"],
                                     ["homology", "--wedge"]],
                         ids=["verify", "spanning", "explore", "homology", "homology-wedge"])
def test_jobs_below_one_is_a_usage_error(capsys, command):
    # refused before any work: H(4, 6) would trip the subset guard (exit 3)
    for m, n in ((1, 1), (4, 6)):
        assert main([*command, "--m", str(m), "--n", str(n), "--jobs", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: jobs must be >= 1, got 0\n"


def test_facets_csv_equals_the_json_complements(capsys):
    code, out = run(capsys, "facets", "--m", "1", "--n", "2")
    assert code == 0
    expected = "".join(",".join(map(str, c)) + "\n"
                       for c in json.loads(out)["facet_complements"])
    code, csv = run(capsys, "facets", "--m", "1", "--n", "2", "--format", "csv")
    assert code == 0 and csv == expected and csv.count("\n") == 106


def test_spanning_csv_equals_the_json_report(capsys):
    code, out = run(capsys, "spanning", "--m", "2", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    expected = "kind,x,y\n" + "".join(
        [f"spanning,{c[0]},{c[1]}\n" for c in doc["spanning_complements"]]
        + [f"non_spanning,{x},{y}\n" for x, y in doc["non_spanning_pairs"]])
    code, csv = run(capsys, "spanning", "--m", "2", "--n", "2", "--format", "csv")
    assert code == 0 and csv == expected
    assert sum(line.startswith("spanning,") for line in csv.splitlines()) == doc["psi"] == 77


def test_facets_and_guard(capsys, tmp_path):
    code, out = run(capsys, "facets", "--m", "1", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["facet_complements"]) == 14
    # (4,6) has 50116 candidate triples, above the enumeration guard
    assert main(["facets", "--m", "4", "--n", "6"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "command", [["facets"], ["order"], ["explore", "--k", "3"], ["verify"], ["spanning"]]
)
def test_subset_guard_without_force(capsys, command):
    assert main([*command, "--m", "4", "--n", "6"]) == 3
    err = capsys.readouterr().err
    assert "50116 candidate subsets exceed guard 20000; use --force" in err


@pytest.mark.parametrize("argv, forceable", [
    (["verify", "--m", "4", "--n", "6"], True),  # the subset guard
    (["homology", "--m", "2", "--n", "3"], True),  # 22 homology vertices
    (["homology", "--m", "4", "--n", "6", "--force"], False),  # no 2^68 bitmap
])
def test_every_refusal_is_one_resource_guard_line(capsys, argv, forceable):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource guard: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert err.endswith("; use --force\n") == forceable


@pytest.mark.parametrize("command", ["facets", "explore"])
@pytest.mark.parametrize("k", [-1, 0, 6])  # H(1,1) has N = 6 vertices
def test_k_out_of_range_is_a_usage_error(capsys, command, k):
    assert main([command, "--m", "1", "--n", "1", "--k", str(k)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: k={k} outside [1,5]" in err
    assert "Traceback" not in err


def test_order_output(capsys):
    code, out = run(capsys, "order", "--m", "1", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["t_tail_start"] == 106
    assert doc["order"][-1] == [6, 8, 9]


def test_verify_ok(capsys):
    code, out = run(capsys, "verify", "--m", "2", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["n_facets"] == 532


def test_verify_no_relocate_fails_at_tail_position(capsys):
    code, out = run(capsys, "verify", "--m", "1", "--n", "2", "--no-relocate-t")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    # counterexample lands exactly where the first tail facet sorts
    code2, out2 = run(capsys, "order", "--m", "1", "--n", "2", "--no-relocate-t")
    order = [tuple(t) for t in json.loads(out2)["order"]]
    assert doc["counterexample"][1] == order.index((6, 8, 9)) + 1


def test_inputs_under_the_subset_guard_run_without_force(capsys):
    # C(48, 3) = 17296 and C(18, 12) = 18564 candidate subsets pass the
    # guard, although their 17188 and 17768 facets make over 1e8 pairs
    code, out = run(capsys, "verify", "--m", "4", "--n", "4")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run(capsys, "explore", "--m", "1", "--n", "4", "--k", "12")
    assert code == 0 and json.loads(out)["counterexample"] == [367, 374]
    sets = oracle_full_facets(build_hex_graph(1, 4), 12)  # revlex order
    assert oracle_row_violation(sets, 374) == 367
    shelling = wedge_check(4, 4).checks["shelling"]
    assert shelling["ran"] and shelling["pass"]
    shelling = wedge_check(4, 6).checks["shelling"]  # C(68, 3) = 50116
    assert not shelling["ran"]
    assert shelling["detail"] == "50116 candidate subsets exceed guard 20000; use --force"


def test_spanning_report(capsys):
    code, out = run(capsys, "spanning", "--m", "1", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["psi"] == 4
    assert len(doc["non_spanning_pairs"]) == 6
    assert doc["psi_matches_formula"] is True
    assert doc["table_matches"] is True


def test_spanning_reports_table_diff_without_failing(capsys):
    code, out = run(capsys, "spanning", "--m", "2", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["psi"] == 77
    assert doc["psi_matches_formula"] is True
    assert doc["table_matches"] is False
    assert doc["table_diff"]["only_computed"] == [[13, 15]]
    assert doc["table_diff"]["only_table"] == []


def test_formulas(capsys):
    code, out = run(capsys, "formulas", "--m", "4", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 68
    assert doc["top_dimension"] == 64
    assert doc["induced_p3"] == 160
    assert doc["facets"] == 49956
    assert doc["tail_facets"] == 22
    assert doc["spanning"] == 2051
    assert "6mn+2m+2n-4" in doc["note"]

    code, out = run(capsys, "formulas", "--m", "1", "--n", "1", "--format", "text")
    assert code == 0
    assert "spanning       4" in out


def test_formulas_text_lines(capsys):
    code, out = run(capsys, "formulas", "--m", "4", "--n", "6", "--format", "text")
    assert code == 0
    assert out == ("vertices       68\n"
                   "top_dimension  64\n"
                   "induced_p3     160\n"
                   "facets         49956\n"
                   "tail_facets    22\n"
                   "spanning       2051\n")


def test_euler(capsys):
    code, out = run(capsys, "euler", "--m", "4", "--n", "6")
    assert code == 0
    assert out.strip() == "2051"
    code, out = run(capsys, "euler", "--m", "1", "--n", "2", "--format", "json")
    assert json.loads(out)["matches"] is True


def test_homology_smallest(capsys):
    code, out = run(capsys, "homology", "--m", "1", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"]["2"] == 4
    assert doc["betti"]["-1"] == 0
    assert main(["homology", "--m", "2", "--n", "3"]) == 3  # N=22 over the limit
    capsys.readouterr()


def test_homology_wedge_verdict(capsys):
    code, out = run(capsys, "homology", "--m", "1", "--n", "1", "--wedge")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["checks"]) == {"shelling", "spanning_eq_psi", "euler_eq_psi", "betti"}
    assert all(c["ran"] and c["pass"] for c in doc["checks"].values())
    assert doc["psi"] == 4 and doc["dimension"] == 2


def test_explore_records_verdict(capsys, tmp_path):
    out_file = tmp_path / "verdict.json"
    code = main([
        "explore", "--m", "1", "--n", "2", "--k", "4", "--out", str(out_file),
    ])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["k"] == 4
    assert doc["n_facets"] == 190
    assert "ok" in doc and "counterexample" in doc


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--m", "2", "--n", "2", "--format", "json"],
        ["facets", "--m", "1", "--n", "2"],
        ["order", "--m", "1", "--n", "2"],
        ["verify", "--m", "1", "--n", "2"],
        ["spanning", "--m", "2", "--n", "2"],
        ["formulas", "--m", "3", "--n", "3"],
        ["euler", "--m", "3", "--n", "4", "--format", "json"],
        ["homology", "--m", "1", "--n", "2"],
        ["explore", "--m", "1", "--n", "1", "--k", "2"],
    ],
)
def test_byte_identical_reruns(tmp_path, argv):
    f1 = tmp_path / "a.out"
    f2 = tmp_path / "b.out"
    assert main(argv + ["--out", str(f1)]) == main(argv + ["--out", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()


def test_jobs_flag_deterministic(tmp_path):
    f1 = tmp_path / "j1.json"
    f2 = tmp_path / "j2.json"
    main(["verify", "--m", "2", "--n", "2", "--jobs", "1", "--out", str(f1)])
    main(["verify", "--m", "2", "--n", "2", "--jobs", "2", "--out", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize(
    "argv", [["order", "--m", "1", "--n", "2"], ["spanning", "--m", "2", "--n", "2"]]
)
def test_out_file_equals_stdout(capsysbinary, tmp_path, argv):
    # the JSON is streamed to either sink; both get the same bytes
    path = tmp_path / "doc.json"
    assert main(argv) == 0
    out = capsysbinary.readouterr().out
    assert main(argv + ["--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert path.read_bytes() == out and out.endswith(b"}\n")


# ---------------------------------------------------------------------------
# the JSON writer gives the bytes of json.dump(..., indent=2) + "\n"
# ---------------------------------------------------------------------------

def _written(write, obj):
    """The text ``write`` puts in a buffer for ``obj``, or, if it raises,
    the exception type and message (partial output is not compared)."""
    fh = io.StringIO()
    try:
        write(fh, obj)
    except Exception as exc:
        return type(exc), str(exc)
    return fh.getvalue()


def _json_dump(fh, obj):
    json.dump(obj, fh, indent=2, default=listed)


def _blocks(width, *blocks):
    """RowBlocks over int32 arrays of the given rows of ``width`` ints, one
    array per block."""
    arrays = [np.array(b, dtype=np.int32).reshape(len(b), width) for b in blocks]
    return RowBlocks(lambda: iter(arrays))


_ITEMS = st.one_of(st.integers(-(10 ** 20), 10 ** 20), st.integers(-3, 3), st.booleans(),
                   st.integers(-3, 3).map(np.int64))
_ROWS = st.one_of(
    st.integers(0, 4).flatmap(lambda w: st.lists(st.tuples(*[_ITEMS] * w), max_size=6)),
    st.lists(st.lists(_ITEMS, max_size=4).map(tuple), max_size=6),  # ragged
    st.lists(st.lists(st.integers(0, 99), min_size=2, max_size=2), max_size=4),  # list rows
)
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
              _ROWS, _ROWS.map(tuple)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)
# RowBlocks of 1 to 5 columns: empty blocks, and as many as three blocks
_INT32 = st.integers(-(2 ** 31), 2 ** 31 - 1)
_ROW_BLOCKS = st.integers(1, 5).flatmap(
    lambda w: st.lists(st.lists(st.lists(_INT32, min_size=w, max_size=w), max_size=4),
                       max_size=3).map(lambda blocks, w=w: _blocks(w, *blocks)))
_DOCS = st.one_of(st.dictionaries(st.text(max_size=8), st.one_of(_VALUES, _ROW_BLOCKS),
                                  max_size=6),
                  st.dictionaries(st.integers(), _VALUES, max_size=3), _VALUES)


@settings(max_examples=150, deadline=None)
@given(_DOCS)
def test_writer_equals_json_dump(doc):
    # a RowBlocks value is dumped as the list of tuples it stands for
    assert _written(cli._write_json, doc) == _written(_json_dump, doc)


def test_writer_row_edge_cases():
    rows = ((1, 2, 3), (-4, 10 ** 30, 6))
    for doc in ({"rows": rows}, {"rows": list(rows)}, {"e": [], "t": (), "u": ((),)},
                {"b": ((1, True),)}, {"r": ((1, 2), (3,))},
                {"x": ((np.int64(1), 2),)}, {"é\u2028": ((1,), (2, 3))},
                {"none": None, "nested": {"rows": rows}}, {}, {"a": 1},
                {"none": _blocks(2), "empty": _blocks(3, [], []), "one": _blocks(1, [[7]])},
                {"r": _blocks(2, [(1, 2)], [], [(-(2 ** 31), 2 ** 31 - 1), (0, 5)]), "z": 0}):
        assert _written(cli._write_json, doc) == _written(_json_dump, doc)
    assert _written(cli._write_json, {"x": ((np.int64(1), 2),)})[0] is TypeError
    # RowBlocks.of splits rows into blocks, the last one partial
    rows = np.arange(3 * (2 * cutcomplex._BLOCK_ROWS + 5), dtype=np.int32).reshape(-1, 3)
    doc = {"rows": RowBlocks.of(rows), "z": 0}
    assert [len(b) for b in doc["rows"]] == [cutcomplex._BLOCK_ROWS] * 2 + [5]
    assert _written(cli._write_json, doc) == _written(_json_dump, doc)
    assert json.loads(_written(cli._write_json, doc))["rows"] == rows.tolist()


def _emitted(monkeypatch, tmp_path, argv):
    """The bytes a command writes with --out, and json.dump of its envelope,
    with streamed row blocks walked again and listed as tuples."""
    envelopes = []
    envelope = cli._envelope
    monkeypatch.setattr(cli, "_envelope",
                        lambda args, payload: envelopes.append(envelope(args, payload))
                        or envelopes[-1])
    path = tmp_path / "doc.json"
    main(argv + ["--out", str(path)])
    (doc,) = envelopes
    return path.read_text(encoding="utf-8"), _written(_json_dump, doc) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--m", "2", "--n", "2", "--format", "json"],
        ["facets", "--m", "1", "--n", "2"],
        ["facets", "--m", "1", "--n", "2", "--k", "1"],
        ["facets", "--m", "1", "--n", "2", "--k", "4"],
        ["order", "--m", "2", "--n", "2"],
        ["order", "--m", "2", "--n", "2", "--no-relocate-t"],
        ["verify", "--m", "2", "--n", "2"],
        ["verify", "--m", "2", "--n", "2", "--no-relocate-t"],
        ["spanning", "--m", "2", "--n", "2"],
        ["formulas", "--m", "3", "--n", "3"],
        ["euler", "--m", "3", "--n", "4", "--format", "json"],
        ["homology", "--m", "1", "--n", "2"],
        ["homology", "--m", "1", "--n", "1", "--wedge"],
        ["explore", "--m", "1", "--n", "1", "--k", "2"],
        ["explore", "--m", "1", "--n", "2", "--k", "4", "--rule", "revlex-with-neighborhood-tail"],
    ],
)
def test_every_json_command_writes_json_dump_bytes(monkeypatch, tmp_path, argv):
    written, expected = _emitted(monkeypatch, tmp_path, argv)
    assert written == expected


def test_order_4_6_writes_json_dump_bytes(monkeypatch, tmp_path):
    written, expected = _emitted(monkeypatch, tmp_path, ["order", "--m", "4", "--n", "6", "--force"])
    assert written == expected and len(written) == 2_078_411


def test_import_pulls_in_no_heavy_module():
    # the start-up cost of every command is the import of hexcut and
    # hexcut.cli in a fresh interpreter; none of these may load with it
    heavy = ["scipy", "sympy", "networkx", "hypothesis", "multiprocessing", "concurrent.futures"]
    code = f"import sys, hexcut, hexcut.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(hexcut.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == []


# ---------------------------------------------------------------------------
# order, verify and spanning of the relocated order are streamed
# ---------------------------------------------------------------------------

def _materialised(monkeypatch):
    """Route the CLI through the materialised complex and order, as it ran
    before the stream: no order is streamed and every verify builds one."""
    monkeypatch.setattr(cli, "stream_shelling", lambda g: None)
    monkeypatch.setattr(cli, "streamed_order_to_json_dict", lambda g, relocate_tail=True:
                        shelling.order_to_json_dict(shelling.shelling_order(
                            hexcut.enumerate_facets(g, 3), relocate_tail)))


def _outputs(tmp_path, label, commands):
    """Exit code and --out bytes of each command."""
    out = []
    for i, argv in enumerate(commands):
        path = tmp_path / f"{label}{i}.out"
        out.append((main(argv + ["--out", str(path)]), path.read_bytes()))
    return out


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 4), (4, 6), (6, 6), (8, 8)])
def test_streamed_commands_write_the_materialised_bytes(monkeypatch, tmp_path, m, n):
    mn = ["--m", str(m), "--n", str(n), "--force"]
    commands = [["order", *mn], ["order", *mn, "--no-relocate-t"], ["verify", *mn],
                ["spanning", *mn], ["spanning", *mn, "--format", "csv"]]
    passed = []
    stream = cli.stream_shelling
    with monkeypatch.context() as patch:
        patch.setattr(cli, "stream_shelling", lambda g: passed.append(stream(g)) or passed[-1])
        streamed = _outputs(tmp_path, "streamed", commands)
    assert len(passed) == 3 and None not in passed
    _materialised(monkeypatch)
    assert streamed == _outputs(tmp_path, "materialised", commands)
    assert [code for code, _ in streamed] == [0] * len(commands)


@pytest.mark.parametrize("command", [["order"], ["order", "--no-relocate-t"], ["verify"],
                                     ["spanning"]])
def test_subset_guard_runs_before_any_stream(monkeypatch, capsys, command):
    def unreachable(*args):
        raise AssertionError("streamed past the subset guard")

    monkeypatch.setattr(cli, "stream_shelling", unreachable)
    monkeypatch.setattr(cli, "streamed_order_to_json_dict", unreachable)
    assert main([*command, "--m", "4", "--n", "6"]) == 3
    assert "50116 candidate subsets exceed guard 20000; use --force" in capsys.readouterr().err


@pytest.mark.parametrize("m,n,t", [(2, 2, 1), (3, 4, 5)])
def test_stream_rejection_falls_back_to_the_materialised_failure(monkeypatch, tmp_path,
                                                                 m, n, t):
    # the tail schedule without tail facet t leaves t at its sorted place:
    # the stream's interval sum rejects the order, and the materialised
    # verifier names the failure of the reinserted order, in the bytes
    # json.dump gives the document
    cx = hexcut.enumerate_facets(build_hex_graph(m, n), 3)
    reinserted, spot = hexcut.order_with_tail_reinserted(cx, t)
    res = hexcut.verify_shelling(reinserted)
    assert not res.ok and res.counterexample[1] == spot
    real = shelling.tail_facets
    monkeypatch.setattr(shelling, "tail_facets",
                        lambda m, n, g: [f for f in real(m, n, g) if f.index != t])
    assert shelling.stream_shelling(cx.graph) is None
    assert hexcut.verify_shelling(shelling.shelling_order(cx)).counterexample == res.counterexample

    head = {"m": m, "n": n, "k": 3, "tool_version": hexcut.__version__, "ok": False,
            "counterexample": list(res.counterexample)}
    verify = dict(head, n_facets=cx.n_facets, pairs_checked=res.pairs_checked,
                  relocated_tail=True)
    mn = ["--m", str(m), "--n", str(n), "--force"]
    for argv, doc in ((["verify", *mn], verify), (["spanning", *mn], head)):
        path = tmp_path / "doc.json"
        assert main(argv + ["--out", str(path)]) == 1
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"
