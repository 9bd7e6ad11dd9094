#!/usr/bin/env python3
"""Print the sha256 of each training and evaluation artifact for five model
rows, of each file ``rstcoh synth`` writes, and of each file ``rstcoh
ablate`` writes, at one small fixed config: the "same config, same bytes"
check across a refactor.

Each row trains with ``rstcoh train`` in its own temporary directory, always
with the relative ``out_dir`` "out", then runs ``rstcoh evaluate`` on the
checkpoint it wrote with the relative ``--out`` "eval", so the configs
recorded in summary.json and report.json are the same wherever the script
runs. The synth row writes the generator's corpus and word vectors to the
relative ``--out`` "synth", and the ablate row the nine-row grid to the
relative ``--out`` "ablate". The package is imported from the
``src/`` of the checkout that holds this script. To compare two revisions,
run the script in both checkouts and diff the output:

    python3 scripts/artifact_digest.py > after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rstcoh import cli  # noqa: E402

ROWS = (("rst", "t"), ("rst", "t,ns"), ("rst", "t,ns,r,e"), ("parseq", "t"),
        ("ensemble", "t,ns,r"))
ARTIFACTS = ("out/run_log.jsonl", "out/summary.json", "out/checkpoint.json",
             "eval/report.json", "eval/report.csv")
# (row, the command, the files it writes), after the train/evaluate rows
COMMAND_ROWS = (
    ("synth", ["synth", "--config", "config.json", "--out", "synth"],
     ("synth/documents.jsonl", "synth/trees.txt", "synth/vectors.txt")),
    ("ablate", ["ablate", "--config", "config.json", "--out", "ablate"],
     ("ablate/ablation.csv", "ablate/ablation_summary.json")),
)
CONFIG = {
    "out_dir": "out",
    "train": {"learning_rate": 3e-3, "epochs": 2, "hidden_size": 8,
              "relation_dim": 4, "seed": 0},
    "n_runs": 2,
    "generator": {"n_train": 40, "n_test": 20, "edu_range": [3, 8],
                  "tokens_per_edu": [2, 5], "signal_strength": 0.9,
                  "token_signal": 0.5, "wv_dim": 6},
}


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"rstcoh {' '.join(argv)} exited {code}")


def digest_run(config: dict, commands: list[list[str]],
               artifacts: tuple[str, ...]) -> dict[str, str]:
    """sha256 of each of ``artifacts`` after running the rstcoh ``commands``
    in a fresh temporary directory that holds ``config`` as config.json."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(config))
            for argv in commands:
                run_cli(argv)
            return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                    for name in artifacts}
        finally:
            os.chdir(cwd)


def digest_row(model: str, features: str) -> dict[str, str]:
    """sha256 of each artifact of one ``rstcoh train`` run and of
    ``rstcoh evaluate`` on its checkpoint."""
    return digest_run({**CONFIG, "model": model, "features": features},
                      [["train", "--config", "config.json"],
                       ["evaluate", "--config", "config.json", "--checkpoint",
                        "out/checkpoint.json", "--out", "eval"]], ARTIFACTS)


def main() -> int:
    for model, features in ROWS:
        for name, digest in digest_row(model, features).items():
            print(f"{model:<8} {features:<9} {name:<19} {digest}")
    for row, argv, artifacts in COMMAND_ROWS:
        for name, digest in digest_run(CONFIG, [argv], artifacts).items():
            print(f"{row:<8} {'':<9} {name:<19} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
