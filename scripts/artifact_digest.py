#!/usr/bin/env python3
"""Print the sha256 of each training and evaluation artifact for five model
rows, of each file ``rstcoh synth`` writes, of each file ``rstcoh ablate``
writes, and of what ingest reports on a corpus read from files, at one small
fixed config: the "same config, same bytes" check across a refactor.

Each row trains with ``rstcoh train`` in its own temporary directory, always
with the relative ``out_dir`` "out", then runs ``rstcoh evaluate`` on the
checkpoint it wrote with the relative ``--out`` "eval", so the configs
recorded in summary.json and report.json are the same wherever the script
runs. The synth row writes the generator's corpus and word vectors to the
relative ``--out`` "synth", and the ablate row the nine-row grid to the
relative ``--out`` "ablate". The ingest row writes the generator's corpus
to files, appends ``BAD_DOCUMENTS`` and ``BAD_TREES`` to them, trains on
those files and runs ``rstcoh validate-trees`` on the trees file, which
exits 2 on it. The package is imported from the
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
# Appended to the ingest row's files: one excluded document for each
# reason ingest gives (a missing tree, a parse error, a single EDU, a
# whitespace-only EDU two levels down, an EDU with no tokens), and a tree
# line with no document, which adds no exclusion.
BAD_DOCUMENTS = [{"id": f"bad-{k}", "label": 1 + k % 3, "text": "Alpha beta."}
                 for k in range(5)]
BAD_TREES = (
    ("bad-1", "(rel broken"),
    ("bad-2", '(edu "degenerate")'),
    ("bad-3", '(rel A/N B/S (rel C/N D/S (edu "a") (edu " ")) (edu "b"))'),
    ("bad-4", '(rel A/N B/S (edu "!!!") (edu "ok words"))'),
    ("orphan", '(rel A/N B/S (edu "a")'),
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


def run_cli(argv: list[str], ok: tuple[int, ...] = (cli.EXIT_OK,)) -> str:
    """The stdout of ``rstcoh argv``, which must exit with a code in ``ok``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code not in ok:
        raise SystemExit(f"rstcoh {' '.join(argv)} exited {code}")
    return out.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def temporary_directory(config: dict):
    """Run the block in a fresh temporary directory that holds ``config``
    as config.json."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(config))
            yield
        finally:
            os.chdir(cwd)


def digest_run(config: dict, commands: list[list[str]],
               artifacts: tuple[str, ...]) -> dict[str, str]:
    """sha256 of each of ``artifacts`` after running the rstcoh ``commands``
    in a fresh temporary directory that holds ``config`` as config.json."""
    with temporary_directory(config):
        for argv in commands:
            run_cli(argv)
        return {name: sha256(Path(name).read_bytes()) for name in artifacts}


def digest_ingest() -> dict[str, str]:
    """sha256 of summary.json after ``rstcoh train`` on the generator's
    corpus written to files with the bad lines appended, and of the stdout
    of ``rstcoh validate-trees`` on that trees file."""
    with temporary_directory(CONFIG):
        run_cli(["synth", "--config", "config.json", "--out", "data"])
        with open("data/documents.jsonl", "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(doc, sort_keys=True) + "\n" for doc in BAD_DOCUMENTS)
        with open("data/trees.txt", "a", encoding="utf-8") as fh:
            fh.writelines(f"{doc_id}\t{text}\n" for doc_id, text in BAD_TREES)
        paths = {"documents": "data/documents.jsonl", "trees": "data/trees.txt",
                 "word_vectors": "data/vectors.txt"}
        Path("config.json").write_text(json.dumps({**CONFIG, "generator": None,
                                                   "paths": paths}))
        run_cli(["train", "--config", "config.json"])
        stdout = run_cli(["validate-trees", "--trees", "data/trees.txt"],
                         ok=(cli.EXIT_DATA,))
        return {"out/summary.json": sha256(Path("out/summary.json").read_bytes()),
                "validate-trees": sha256(stdout.encode("utf-8"))}


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
    for name, digest in digest_ingest().items():
        print(f"{'ingest':<8} {'':<9} {name:<19} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
