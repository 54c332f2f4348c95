#!/usr/bin/env python3
"""Mutation check for the shelling verifier, the lookups of the complex it
reads, the order builder, the spanning report and its exports and the
homology oracle, standard library only.

Copies ``src/`` to a temporary directory, applies one small change at a
time to the copy of the module a mutant names, by exact string replacement,
and runs ``tests/test_homology.py``, ``tests/test_shelling.py`` and
``tests/test_spanning.py`` against the copy.  Each mutant must make the
tests fail.

    python tools/mutation_check.py

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when the
unmutated copy fails its tests or a mutant's target text does not occur
exactly once in its module (the code changed; update the list).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_homology.py", "tests/test_shelling.py", "tests/test_spanning.py"]

# name -> (module under src/hexcut, text in it, replacement)
MUTANTS = {
    "no vertex counts as live (L = 0)": (
        "shelling.py",
        "    L = np.bitwise_count(inside & faces.packed(faces.vertex <= last))"
        ".sum(axis=1, dtype=np.int64)\n",
        "    L = np.zeros(len(rows), dtype=np.int64)\n",
    ),
    "block passed into the masks before its check": (
        "shelling.py",
        "        yield lo, faces.swap_rows(comp[lo:hi], face[lo:hi])\n"
        "        faces.pass_rows(comp[lo:hi], face[lo:hi])\n",
        "        rows = faces.swap_rows(comp[lo:hi], face[lo:hi])\n"
        "        faces.pass_rows(comp[lo:hi], face[lo:hi])\n"
        "        yield lo, rows\n",
    ),
    "interval sum: exponent off by one": (
        "shelling.py",
        "count << (top - size)",
        "count << (top + 1 - size)",
    ),
    "interval sum: first block left out of the histogram": (
        "shelling.py",
        "        self.sizes += np.bincount(size, minlength=N - k + 1)\n",
        "        self.sizes += (self.rows > 0) * np.bincount(size, minlength=N - k + 1)\n",
    ),
    "interval sum: == f(Delta) becomes >=": (
        "shelling.py",
        "        if _interval_sum(tally.sizes) == total:\n",
        "        if _interval_sum(tally.sizes) >= total:\n",
    ),
    "sweep skipped when f(Delta) is unknown": (
        "shelling.py",
        "        else:\n"
        "            failure = _first_failure(",
        "        elif tally is not None:\n"
        "            failure = None\n"
        "        else:\n"
        "            failure = _first_failure(",
    ),
    "byte-key face lookup reads the columns in descending order": (
        "cutcomplex.py",
        "        return _search(self.sorted, _keys(np.stack(cols, axis=1)))\n",
        "        return _search(self.sorted, _keys(np.stack(cols[::-1], axis=1)))\n",
    ),
    "face count trusted without the triangle and 4-cycle check": (
        "cutcomplex.py",
        "            if (a, c) in ends or g.is_edge(a, c):\n"
        "                return None\n",
        "",
    ),
    "face count trusted with a path listed as a facet": (
        "cutcomplex.py",
        "    if (_find_rows(cx, paths) >= 0).any():\n"
        "        return None\n",
        "",
    ),
    "canonical check without its lex-order clause": (
        "cutcomplex.py",
        "                and (lead > 0).all())\n",
        "                and True)\n",
    ),
    "canonical check without its range clause": (
        "cutcomplex.py",
        "    return bool(((1 <= comp) & (comp <= n_vertices)).all()\n",
        "    return bool(True\n",
    ),
    "within-block check deleted": (
        "shelling.py",
        "    failing = _first_row(inside, ords, faces, comp, lo)\n",
        "    failing = []\n",
    ),
    "within-block scan starts at lo + 1": (
        "shelling.py",
        "    failing = _first_row(inside, ords, faces, comp, lo)\n",
        "    failing = _first_row(inside, ords, faces, comp, lo + 1)\n",
    ),
    "live bound excludes its last vertex": (
        "shelling.py",
        "faces.packed(faces.vertex <= last)",
        "faces.packed(faces.vertex < last)",
    ),
    "containment: p < r becomes p <= r": (
        "shelling.py",
        '    after = np.searchsorted(ords, p, side="right")\n',
        '    after = np.searchsorted(ords, p, side="left")\n',
    ),
    "containment ANDs k - 1 vertex masks": (
        "shelling.py",
        "    for c in range(1, cols.shape[1]):\n",
        "    for c in range(2, cols.shape[1]):\n",
    ),
    "lex run: each face cut at low(x_s + 1)": (
        "shelling.py",
        "            below = np.take(self.below, comp[:, s], axis=1)\n",
        "            below = np.take(self.below, comp[:, s] + 1, axis=1, mode=\"clip\")\n",
    ),
    "lex run one row longer (r + 1)": (
        "shelling.py",
        "    return int(down[0]) + 1 if len(down) else len(rows)\n",
        "    return int(down[0]) + 2 if len(down) else len(rows)\n",
    ),
    "lex run check: subset span M_j - 1": (
        "shelling.py",
        "size, rank + 1, choose[size] - 1 - rank,",
        "size, rank + 1, choose[size] - 2 - rank,",
    ),
    "stream: run masks keep the tail triples": (
        "shelling.py",
        "    _triple_masks(faces, pos, np.concatenate([paths, moved]))\n",
        "    _triple_masks(faces, pos, paths)\n",
    ),
    "stream: a tail complement also left in the base segment": (
        "shelling.py",
        "            slab = np.delete(slab, at, axis=0)\n",
        "",
    ),
    "stream: the first block of each batch fed twice": (
        "shelling.py",
        "            for lo in range(0, cut, _BLOCK_ROWS):\n",
        "            for lo in [0, *range(0, cut, _BLOCK_ROWS)]:\n",
    ),
    "a moved row also left in the base segment": (
        "shelling.py",
        "    keep[at] = False\n",
        "",
    ),
    "constructor's position check skipped": (
        "shelling.py",
        "    def __post_init__(self, position):\n        if position is not None and not (\n",
        "    def __post_init__(self, position):\n        if False and not (\n",
    ),
    "ordinals off by one": (
        "shelling.py",
        "    ordinal[order.rows] = np.arange(1, order.n_facets + 1, dtype=np.int32)\n",
        "    ordinal[order.rows] = np.arange(order.n_facets, dtype=np.int32)\n",
    ),
    "rows left writeable": (
        "shelling.py",
        "        rows.flags.writeable = False\n",
        "",
    ),
    "builder's rows off by one position": (
        "shelling.py",
        '    object.__setattr__(order, "_rows", rows)\n',
        '    object.__setattr__(order, "_rows", np.roll(rows, 1))\n',
    ),
    "spanning report taken by the constructor and replace()": (
        "shelling.py",
        "    _report: SpanningReport | None = field(default=None, init=False, repr=False, "
        "compare=False)\n",
        "    _report: SpanningReport | None = field(default=None, repr=False, compare=False)\n",
    ),
    "verified without a spanning report": (
        "shelling.py",
        "        return self._report is not None\n",
        "        return True\n",
    ),
    "spanning flag: == N - k becomes >= N - k - 1": (
        "shelling.py",
        "        span = size == N - k\n",
        "        span = size >= N - k - 1\n",
    ),
    "tally: spanning positions without the block offset": (
        "shelling.py",
        "        self.blocks.append((self.rows + np.flatnonzero(span), comp[span],",
        "        self.blocks.append((np.flatnonzero(span), comp[span],",
    ),
    "tally: witness vertex 0 left unmasked": (
        "shelling.py",
        "        seen[:, 0] = 1\n",
        "",
    ),
    "spanning export: the JSON complements drop their last partial block": (
        "shelling.py",
        '        "spanning_complements": RowBlocks.of(report.spanning),\n',
        '        "spanning_complements": RowBlocks.of('
        'report.spanning[:len(report.spanning) // _BLOCK_ROWS * _BLOCK_ROWS]),\n',
    ),
    "non-spanning pairs skip y = N - 1": (
        "shelling.py",
        "        x, y = np.nonzero(np.triu(~spans[1:, 1:], 1))\n",
        "        x, y = np.nonzero(np.triu(~spans[1:, 1:-1], 1))\n",
    ),
    "cone reduction narrows the faces to uint8 at N <= 16": (
        "homology.py",
        "        dtype = np.uint16\n",
        "        dtype = np.uint8\n",
    ),
    "cone reduction never runs": (
        "homology.py",
        "    for start in range(0, residual.size, chunk):\n",
        "    for start in range(0, 0, chunk):\n",
    ),
    "boundary_matrix drops one row from each column": (
        "homology.py",
        "    return [sum(1 << r for r in col) for col in rows.tolist()]\n",
        "    return [sum(1 << r for r in col[1:]) for col in rows.tolist()]\n",
    ),
    "faces_by_size drops the empty face": (
        "homology.py",
        "    faces = np.flatnonzero(downward_closure(facet_masks, n_vertices))\n",
        "    faces = np.flatnonzero(downward_closure(facet_masks, n_vertices))[1:]\n",
    ),
    "missing subface check deleted": (
        "homology.py",
        "    if not np.array_equal(lower.take(rows, mode=\"clip\"), subfaces):\n",
        "    if False:\n",
    ),
    "boundary check takes the first faces, not a seeded sample": (
        "homology.py",
        "        take = take[random.Random(seed).sample(range(take.size), samples)]\n",
        "        take = take[:samples]\n",
    ),
}


def run_tests(src: Path) -> int:
    """Exit status of the tests run against the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run([sys.executable, "-c", "import hexcut; print(hexcut.__file__)"],
                           env=env, capture_output=True, text=True, check=True)
    if not Path(probe.stdout.strip()).is_relative_to(src):
        sys.exit(f"hexcut imports from {probe.stdout.strip()}, not from {src}")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    modules = {module: (ROOT / "src/hexcut" / module).read_text()
               for module, _, _ in MUTANTS.values()}
    for name, (module, target, _) in MUTANTS.items():
        if modules[module].count(target) != 1:
            print(f"{name}: target text occurs {modules[module].count(target)} times "
                  f"in {module}, expected 1")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if run_tests(src) != 0:
            print("the unmutated copy fails its tests")
            return 2
        survivors = []
        for name, (module, target, replacement) in MUTANTS.items():
            path = src / "hexcut" / module
            path.write_text(modules[module].replace(target, replacement))
            code = run_tests(src)
            path.write_text(modules[module])
            print(f"{'killed' if code else 'SURVIVED'}: {name}", flush=True)
            if code == 0:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0

if __name__ == "__main__":
    sys.exit(main())
