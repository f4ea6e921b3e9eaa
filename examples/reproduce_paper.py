#!/usr/bin/env python
"""Reproduce every figure of the paper on a corpus sample.

Runs the experiments behind Figs. 3/4/6/8 and the Section 2/4 text
numbers -- read from the experiment table,
``repro.analysis.experiments.EXPERIMENTS`` -- on a subsample of the
synthetic corpus (pass ``--full`` for all 1258 loops; expect a long run)
and prints the paper's reported values next to ours.

Run:  python examples/reproduce_paper.py [--sample N] [--full] [--sweep]
"""

import argparse

from repro.analysis.experiments import EXPERIMENTS
from repro.workloads.corpus import bench_corpus, corpus_stats, paper_corpus

PAPER_NOTES = {
    "fig3": "paper: most loops schedulable within 32 queues",
    "sec2": "paper: ~95% of loops keep the same II after copy insertion",
    "fig4": "paper: a considerable fraction achieves II_speedup > 1,"
            " growing with machine width",
    "fig6": "paper: 95% / 84% / 52% keep the single-cluster II",
    "sec4": "paper: 8 private + 8 ring queues per direction suffice",
    "fig8": "paper: IPC grows with FUs; clustered slightly below single;"
            " dynamic below static",
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sample", type=int, default=120)
    ap.add_argument("--full", action="store_true")
    ap.add_argument("--sweep", action="store_true",
                    help="include the (slow) Fig. 8 IPC sweep")
    args = ap.parse_args()

    loops = paper_corpus() if args.full else bench_corpus(args.sample)
    print(f"corpus: {corpus_stats(loops).render()}\n")

    for key, note in PAPER_NOTES.items():
        if key == "fig8" and not args.sweep:
            continue
        print("=" * 72)
        print(EXPERIMENTS[key].run(loops).render())
        print(f"[{note}]\n")


if __name__ == "__main__":
    main()
