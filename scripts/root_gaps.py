#!/usr/bin/env python3
"""Generate a small corpus and compare root-node relaxation gaps on it.

Writes the corpus to <out>/instances/ and the comparison CSV to
<out>/root_gaps.csv.

Example:
    python3 scripts/root_gaps.py --families cbqp boxqp --n 10 --count 5
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spectralqp.cli import main as cli_main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--families", nargs="+", default=["cbqp", "boxqp"])
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--density", type=float, default=0.5)
    ap.add_argument("--count", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=float, default=10.0)
    ap.add_argument("--out", default="root_gaps_out")
    args = ap.parse_args(argv)

    corpus = os.path.join(args.out, "instances")
    os.makedirs(corpus, exist_ok=True)
    for family in args.families:
        gen = [
            "gen", family,
            "--n", str(args.n),
            "--density", str(args.density),
            "--count", str(args.count),
            "--seed", str(args.seed),
            "--out", corpus,
        ]
        if family == "cbqp":
            gen += ["--k", str(max(1, args.n // 4))]
        if family == "eiqp":
            gen += ["--m", "1"]
        code = cli_main(gen)
        if code != 0:
            return code

    csv_path = os.path.join(args.out, "root_gaps.csv")
    code = cli_main(
        [
            "root-gaps", corpus,
            "--out", csv_path,
            "--budget", str(args.budget),
        ]
    )
    if code == 0:
        print(csv_path)
    return code


if __name__ == "__main__":
    sys.exit(run())
