#!/usr/bin/env python3
"""Run one fixed list of spectral-rff commands on two source trees and
compare every output byte.

    python scripts/compare_trees.py PARENT CHILD

Each command runs in a fresh process per tree, ``python -m spectral_rff``
with PYTHONPATH=<tree>/src and SPECTRAL_RFF_THREADS=1, and writes into its
own directory of a temporary work area; a command that reads a model reads
the one its own tree fitted. Every file written is compared, and so are
each command's exit code, stdout and stderr. Only the wall-clock columns
are masked: ``wall_ms`` in trace.csv and ``train_seconds`` in report.csv.
Prints ``identical``, or each file that differs, and exits 1 on any
difference. The input CSVs are drawn here with the random module, so the
script needs nothing from the package but its command line.
"""

import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

FIT = ["--max-steps", "30", "--eval-every", "10", "--lr", "0.01", "--seed", "5"]

# (output directory, argv); paths are relative to the tree's work area
COMMANDS = [
    ("fit1", ["fit", "--data", "d1.csv", "--m", "150", *FIT]),
    ("fit2", ["fit", "--data", "d2.csv", "--m", "30", *FIT]),
    ("fit2s", ["fit", "--data", "d2.csv", "--mode", "stationary-fixed", "--m", "40", *FIT]),
    ("fit3", ["fit", "--data", "d3.csv", "--m", "20", *FIT]),
    *((f"grid1_{i}", ["grid", "--model", "fit1/model.json", flag])
      for i, flag in enumerate(["--grid=0:1:5000", "--grid=-0.3:1.7:777", "--grid=0:1:769",
                                "--grid=0:1:3841", "--grid=0:1:4097", "--grid=0:1:7681"])),
    *((f"grid2_{i}", ["grid", "--model", f"{fit}/model.json", flag])
      for i, (fit, flag) in enumerate([("fit2", "--grid=0:1:70,-1:2:53"),
                                       ("fit2", "--grid=0:1:91,0:1:64"),
                                       ("fit2s", "--grid=0:1:23,0:1:167"),
                                       ("fit2s", "--grid=0:1:21,0:1:61")])),
    ("grid3", ["grid", "--model", "fit3/model.json", "--grid=0:1:12,0:1:11,-1:1:10"]),
    ("dump1_a", ["kernel-dump", "--model", "fit1/model.json", "--anchors", "0.2;0.5;0.8",
                 "--window", "0.3", "--count", "3001"]),
    ("dump1_b", ["kernel-dump", "--model", "fit1/model.json", "--anchors", "0.4"]),
    ("dump1_c", ["kernel-dump", "--model", "fit1/model.json", "--anchors", "0.2;0.5",
                 "--window", "0.4", "--count", "769"]),
    ("dump2_a", ["kernel-dump", "--model", "fit2s/model.json", "--anchors", "0.3,0.3;0.7,0.6",
                 "--window", "0.25", "--count", "61"]),
    ("dump2_b", ["kernel-dump", "--model", "fit2s/model.json", "--anchors", "0.5,0.5",
                 "--count", "45"]),
    ("dump2_c", ["kernel-dump", "--model", "fit2/model.json", "--anchors", "0.3,0.6",
                 "--window", "0.2", "--count", "641"]),
    ("predict1", ["predict", "--model", "fit1/model.json", "--data", "q1.csv"]),
    ("predict2", ["predict", "--model", "fit2/model.json", "--data", "q2.csv"]),
    ("spectrum", ["spectrum", "--spec", "matern:1.5", "--m", "64", "--dim", "2",
                  "--pairs", "--seed", "3"]),
    ("bench", ["benchmark", "chirp", "--runs", "2", "--n", "120", "--m", "16",
               "--max-steps", "20"]),
]

# file name -> column whose wall-clock values are masked
MASKED = {"trace.csv": "wall_ms", "report.csv": "train_seconds"}


def write_inputs(work):
    """Training tables in 1, 2 and 3 inputs, and two query tables."""
    rng = random.Random(22)

    def write(name, header, rows):
        with open(work / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")

    for d in (1, 2, 3):
        rows = []
        for _ in range(300):
            x = [rng.random() for _ in range(d)]
            y = math.sin(40.0 * x[0] ** 2) + sum(x[1:]) + 0.1 * rng.gauss(0.0, 1.0)
            rows.append([*x, y])
        write(f"d{d}.csv", [*(f"x{i + 1}" for i in range(d)), "y"], rows)
    write("q1.csv", ["x1"], ([rng.uniform(-0.5, 1.5)] for _ in range(10_001)))
    write("q2.csv", ["x1", "x2"], ([rng.random(), rng.random()] for _ in range(5_000)))


def run_tree(tree, work):
    """Run COMMANDS on ``tree`` in ``work``; each command's exit code,
    stdout and stderr go to logs/<name>.txt."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               SPECTRAL_RFF_THREADS="1")
    write_inputs(work)
    (work / "logs").mkdir()
    for name, argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "spectral_rff", *argv, "--out-dir", name],
                              cwd=work, env=env, capture_output=True, text=True)
        (work / "logs" / f"{name}.txt").write_text(
            f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}")


def masked(path):
    """The file's bytes, with its wall-clock column blanked if it has one."""
    raw = path.read_bytes()
    column = MASKED.get(path.name)
    if column is None:
        return raw
    rows = [line.split(",") for line in raw.decode("utf-8").split("\n")]
    at = next(i for i, cells in enumerate(rows) if column in cells)
    j = rows[at].index(column)
    for cells in rows[at + 1:]:
        if len(cells) > j:
            cells[j] = ""
    return "\n".join(map(",".join, rows)).encode("utf-8")


def differences(a, b):
    """Relative paths under a or b whose masked bytes differ or that only
    one holds."""
    files = lambda root: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
    names_a, names_b = files(a), files(b)
    return sorted(str(p) for p in names_a ^ names_b) + sorted(
        str(p) for p in names_a & names_b if masked(a / p) != masked(b / p))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: compare_trees.py PARENT CHILD")
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / side for side in ("parent", "child")]
        for tree, work in zip(argv, works):
            work.mkdir()
            run_tree(tree, work)
        diff = differences(*works)
    print("\n".join(diff) if diff else "identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
