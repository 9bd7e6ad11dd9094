#!/usr/bin/env python3
"""Run the full feature-ablation grid on a freshly generated planted-signal
corpus and print/save the results table.

Desk-scale defaults finish in a few minutes; raise --runs/--epochs for
tighter confidence intervals.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from rstcoh import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/synthetic_ablation")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--train-docs", type=int, default=300)
    ap.add_argument("--test-docs", type=int, default=150)
    ap.add_argument("--signal", type=float, default=0.9)
    args = ap.parse_args()

    config = {
        "out_dir": args.out,
        "train": {
            "learning_rate": 3e-3,
            "epochs": args.epochs,
            "hidden_size": 16,
            "relation_dim": 8,
            "seed": args.seed,
        },
        "n_runs": args.runs,
        "generator": {
            "n_train": args.train_docs,
            "n_test": args.test_docs,
            "signal_strength": args.signal,
            "token_signal": 0.5,
            "class_probs": [0.25, 0.25, 0.5],
            "wv_dim": 8,
        },
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(config, fh)
        cfg_path = fh.name
    code = cli.main(["ablate", "--config", cfg_path])
    if code == 0:
        print(f"\nwrote {Path(args.out) / 'ablation.csv'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
