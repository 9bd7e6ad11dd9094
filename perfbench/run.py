"""rstcoh benchmark: training and evaluation throughput, per-layer self time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Load model: rstcoh is a batch trainer, so the benchmark is a closed loop with
one client. It writes the workload's corpus files from ``--seed`` (the
``rstcoh synth`` path), then runs fresh measured processes
(perfbench/invoke.py) on them one at a time, for about ``--seconds``.

With ``--trace 0`` it prints the end-to-end metrics: medians over the
processes with their sample count, and throughput over all of them. With
``--trace 1`` it runs them untraced, with span wrappers and with op
counters, and prints the per-layer table. Either way it checks every
operation's outputs (see ``check_outputs``) and ends with one JSON line; it
exits 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import INNER_SPANS, OP_KINDS, summarize  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
BASELINE = BENCH_DIR / "baseline.json"
REFERENCES = BENCH_DIR / "references.jsonl"

# Criterion-6 protocol; the model seed is the trainer's base seed.
TRAIN = {"learning_rate": 3e-3, "epochs": 1, "hidden_size": 16,
         "relation_dim": 8, "seed": 100, "shuffle": True}
GENERATOR = {"wv_dim": 8, "signal_strength": 0.9, "token_signal": 0.5,
             "class_probs": (0.25, 0.25, 0.5)}

# Sizes are per measured process. Every process of a run gets the same
# documents, so a run repeats one unit of work until ``--seconds`` is used up
# and takes throughput over all of its processes. The documents are drawn from
# a pool POOL times larger so that their EDU counts are spread evenly over
# ``edu_range`` (see ``balanced``): every seed then asks for the same number
# of EDUs, so the seed changes the documents but not how much work they are.
# BENCHMARK.json lists the workloads the benchmark is judged on. rst_long_docs
# is left out of it, so that the other three fit longer runs in the time a
# full check may take; ``--workload rst_long_docs`` and ``all`` still run it.
POOL = 4
WORKLOADS = {
    "rst_edu": {"kind": "train", "model": "rst", "features": "t,ns,r,e",
                "edu_range": (4, 16), "n_train": 60,
                "n_test": 12, "n_runs": 1, "workers": 1},
    "rst_long_docs": {"kind": "train", "model": "rst", "features": "t,ns,r",
                      "edu_range": (32, 96), "n_train": 40,
                      "n_test": 8, "n_runs": 1, "workers": 1},
    "ensemble_seeds": {"kind": "train", "model": "ensemble", "features": "t,ns,r",
                       "edu_range": (4, 16), "n_train": 20,
                       "n_test": 5, "n_runs": 2, "workers": 2},
    # The checkpoint is trained once per seed during preparation, untimed.
    "evaluate_large": {"kind": "evaluate", "model": "rst", "features": "t,ns,r,e",
                       "edu_range": (4, 16), "n_test": 500,
                       "ckpt_train": 30, "ckpt_test": 10},
}

END_TO_END = {"setup_s": "s", "docs_per_s": "docs/s", "wall_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "numcore.backward.self_s": "s",
    "numcore.backward.calls": "count",
    "numcore.adam_step.self_s": "s",
    "numcore.lstm_cell_step.self_s": "s",
    "numcore.lstm_cell_step.calls": "count",
    "numcore.ops_per_doc": "ops/doc",
    **{f"numcore.ops.{kind}": "ops/doc" for kind in OP_KINDS},
    "numcore.save_checkpoint.s": "s",
    "numcore.load_checkpoint.s": "s",
    "numcore.checkpoint_bytes": "bytes",
    "edu_encoder.encode_edu.self_s": "s",
    "edu_encoder.encode_edu.calls": "count",
    "edu_encoder.tokens": "count",
    "tree_model.encode_subtree.self_s": "s",
    "tree_model.internal_nodes": "count",
    "tree_model.label_embedding.self_s": "s",
    "tree_model.label_embedding.calls": "count",
    "parseq.encode_parseq.self_s": "s",
    "parseq.encode_parseq.calls": "count",
    "trainer.classify.train_s": "s",
    "trainer.classify.eval_s": "s",
    "trainer.cross_entropy.self_s": "s",
    "trainer.evaluate_model.s": "s",
    "trainer.train.s": "s",
    "trainer.seed_overlap": "ratio",
    "trainer.speedup_without_e": "ratio",
    "corpus.load_corpus.s": "s",
    "corpus.load_word_vectors.s": "s",
    "corpus.docs_loaded": "count",
    "corpus.docs_excluded": "count",
    "rst_data.parse_tree.self_s": "s",
    "rst_data.parse_tree.calls": "count",
    "rst_data.validate_tree.self_s": "s",
    "cli.resolve_corpus.s": "s",
    "cli.load_model_from_checkpoint.s": "s",
    "trace_overhead_share": "ratio",
}

# Rounding allowance against the recorded reference outputs. A refactor that
# keeps the math (fused gates, batching) may reorder float sums; the ROADMAP
# lets results move only within the scalar oracles' 1e-10 tolerance. Counts in
# the confusion matrix must match exactly.
REL_TOL = 1e-10

CHILD_TIMEOUT_S = 170.0


# --- preparation --------------------------------------------------------------


def _write_split(corpus, directory: Path, train, test) -> dict:
    directory.mkdir(parents=True)
    part = corpus.CorpusSplit(list(train), list(test))
    corpus.write_documents(directory / "documents.jsonl", part)
    corpus.write_trees(directory / "trees.txt", part)
    return {"documents": str(directory / "documents.jsonl"),
            "trees": str(directory / "trees.txt")}


def _write_config(path: Path, paths: dict, out_dir: Path, wl: dict) -> None:
    config = {"paths": paths, "out_dir": str(out_dir), "model": wl["model"],
              "features": wl["features"], "train": TRAIN,
              "n_runs": wl.get("n_runs", 1), "workers": wl.get("workers", 1)}
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def balanced(pool: list, n: int, edu_range: tuple[int, int]) -> list:
    """``n`` documents of ``pool`` whose EDU counts are spread evenly over
    the counts of ``edu_range``, as the generator draws them: for each point
    of an even grid, the unused document of the nearest count, earliest
    first. They keep their order in the pool."""
    from rstcoh import rst_data

    lo, hi = edu_range
    sizes = [rst_data.count_leaves(doc.tree) for doc in pool]
    unused = set(range(len(pool)))
    chosen = []
    for i in range(n):
        want = lo - 0.5 + (hi - lo + 1) * (i + 0.5) / n
        pick = min(unused, key=lambda j: (abs(sizes[j] - want), j))
        unused.remove(pick)
        chosen.append(pick)
    return [pool[j] for j in sorted(chosen)]


def prepare(name: str, seed: int, run_dir: Path) -> dict:
    """Write the workload's files for ``seed``; return the measured processes'
    spec."""
    from rstcoh import cli, corpus

    wl = WORKLOADS[name]
    if wl["kind"] == "train":
        n_train, n_test = wl["n_train"], wl["n_test"]
    else:
        n_train, n_test = wl["ckpt_train"], wl["ckpt_test"] + wl["n_test"]
    gen = corpus.GeneratorConfig(n_train=POOL * n_train, n_test=POOL * n_test,
                                 edu_range=wl["edu_range"], **GENERATOR)
    pool = corpus.synthesize_corpus(gen, seed)
    split = corpus.CorpusSplit(balanced(pool.train, n_train, wl["edu_range"]),
                               balanced(pool.test, n_test, wl["edu_range"]), [])
    vectors = run_dir / "vectors.txt"
    corpus.write_word_vectors(vectors, corpus.synthesize_word_vectors(gen, seed))

    checkpoint = None
    test = split.test
    train = split.train
    if wl["kind"] == "evaluate":
        paths = _write_split(corpus, run_dir / "ckpt", split.train,
                             split.test[:wl["ckpt_test"]])
        paths["word_vectors"] = str(vectors)
        config = run_dir / "ckpt" / "config.json"
        _write_config(config, paths, run_dir / "ckpt" / "out", wl)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--config", str(config)])
        if code != 0:
            raise RuntimeError(f"training the evaluation checkpoint exited {code}")
        checkpoint = str(run_dir / "ckpt" / "out" / "checkpoint.json")
        test = split.test[wl["ckpt_test"]:]
        train = []

    inputs = run_dir / "inputs"
    paths = _write_split(corpus, inputs, train, test)
    paths["word_vectors"] = str(vectors)
    _write_config(inputs / "config.json", paths, inputs / "out", wl)
    spec = {"kind": wl["kind"], "n_test": len(test),
            "config": str(inputs / "config.json"), "checkpoint": checkpoint,
            "artifact": str(inputs / ("checkpoint.json" if wl["kind"] == "train"
                                      else "report.json"))}
    if name == "rst_edu":
        # The same documents without EDU embeddings, for the traced run's
        # comparison of rst t,ns,r with rst t,ns,r,e.
        _write_config(inputs / "config_no_e.json", paths, inputs / "out",
                      dict(wl, features="t,ns,r"))
        spec["config_no_e"] = str(inputs / "config_no_e.json")
    return spec


# --- measured processes -----------------------------------------------------------


class Child:
    """Runs one measured process and keeps its result (None if it failed)."""

    def __init__(self, spec: dict, mode: str, run_dir: Path, tag: int,
                 deadline: float, variant: str = "main"):
        config = spec["config"] if variant == "main" else spec[f"config_{variant}"]
        self.spec = dict(spec, mode=mode, config=config)
        self.mode = mode
        self.variant = variant
        spec_path = run_dir / f"spec{tag:03d}.json"
        result_path = run_dir / f"result{tag:03d}.json"
        spec_path.write_text(json.dumps(self.spec), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.error = None
        self.result = None
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "invoke.py"), str(spec_path),
                 str(result_path)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=max(5.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.error = "measured process timed out"
            return
        finally:
            self.seconds = time.monotonic() - t_spawn
        if proc.returncode != 0:
            self.error = (f"measured process exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
            return
        self.result = json.loads(result_path.read_text(encoding="utf-8"))
        self.result["t_spawn"] = t_spawn
        expected = SRC / "rstcoh" / "__init__.py"
        if Path(self.result["rstcoh_file"]) != expected.resolve():
            self.error = f"measured process imported {self.result['rstcoh_file']}, not {expected}"
            self.result = None

    @property
    def setup_s(self) -> float:
        return self.result["t_setup"] - self.result["t_spawn"]

    @property
    def main_s(self) -> float:
        return self.result["t_main_end"] - self.result["t_main"]

    @property
    def wall_s(self) -> float:
        return self.result["t_end"] - self.result["t_spawn"]

    @property
    def docs_per_s(self) -> float:
        return self.result["docs"] / self.main_s


def expected_ops(wl: dict) -> int:
    return wl.get("n_runs", 1) if wl["kind"] == "train" else 1


# --- output check -----------------------------------------------------------------


def op_outputs(op: dict) -> dict:
    """The part of one operation's result that must repeat exactly."""
    return {k: op[k] for k in ("seed", "epoch_losses", "report") if k in op}


def reference_view(op: dict) -> dict:
    """What the recorded reference keeps of one operation: the losses and the
    confusion matrix, from which every other report field is computed."""
    view = {k: op[k] for k in ("seed", "epoch_losses") if k in op}
    view["confusion"] = op["report"]["confusion"]
    return view


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def within(got, ref, rel: float = REL_TOL) -> bool:
    """Structural equality with numbers equal up to ``rel`` (relative, with an
    absolute floor of ``rel`` for values below 1)."""
    if isinstance(ref, dict):
        return (isinstance(got, dict) and got.keys() == ref.keys()
                and all(within(got[k], ref[k], rel) for k in ref))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(within(g, r, rel) for g, r in zip(got, ref)))
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - ref) <= rel * max(1.0, abs(ref)))
    return got == ref


def op_problem(op: dict, n_test: int, reference: dict | None) -> str | None:
    """Why one operation failed, or None if it passed."""
    if "error" in op:
        return op["error"].strip().splitlines()[-1]
    if op.get("diverged_on") is not None:
        return f"diverged on document {op['diverged_on']}"
    report = op.get("report")
    if report is None:
        return "no test report"
    if sum(map(sum, report["confusion"])) != n_test:
        return f"report counts {sum(map(sum, report['confusion']))} documents, not {n_test}"
    if any(not (0.0 <= x < float("inf")) for x in op.get("epoch_losses", [])):
        return "non-finite or negative epoch loss"
    if reference is not None and not within(reference_view(op), reference):
        return "outputs differ from the recorded reference beyond the rounding allowance"
    return None


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rstcoh").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_outputs(name: str, seed: int, children: list[Child], wl: dict,
                  references: list | None, seen: dict) -> tuple[int, int, list[str]]:
    """Return (attempted, failed, problems) over every operation of every child.

    An operation fails if it raised, diverged, produced a malformed report,
    differs from the reference recorded for this seed beyond REL_TOL, or
    does not repeat bit for bit what an earlier process of the same source
    produced for the same workload and seed (``seen`` maps
    "workload/seed/config" to that digest and is updated in place).
    """
    attempted = failed = 0
    problems: list[str] = []
    for n, child in enumerate(children):
        n_ops = expected_ops(wl)
        attempted += n_ops
        if child.result is None:
            failed += n_ops
            problems.append(f"process {n} ({child.mode}): {child.error}")
            continue
        ops = child.result["ops"]
        ref_ops = references if child.variant == "main" else None
        for i, op in enumerate(ops):
            ref = ref_ops[i] if ref_ops is not None and i < len(ref_ops) else None
            problem = op_problem(op, child.spec["n_test"], ref)
            if problem is not None:
                failed += 1
                problems.append(f"process {n} op {i} ({child.mode}): {problem}")
        if len(ops) != n_ops:
            failed += abs(n_ops - len(ops))
            problems.append(f"process {n}: {len(ops)} operations, expected {n_ops}")
        key = f"{name}/{seed}/{child.variant}"
        d = digest([op_outputs(op) for op in ops])
        if seen.setdefault(key, d) != d:
            failed += n_ops
            problems.append(f"process {n} ({child.mode}): outputs are not "
                            "bit-identical to an earlier run of the same source")
    return attempted, failed, problems


# --- metrics ------------------------------------------------------------------------


def end_to_end(children: list[Child]) -> dict[str, dict]:
    """Per metric: the value for this run and its sample count.

    Set-up time and memory are medians over the run's processes. The
    machine's speed drifts over seconds, so throughput and wall time use
    every second of the run: total documents over total main-phase time,
    and the mean wall time of one process.
    """
    ok = [c for c in children if c.result is not None]
    if not ok:
        return {}
    docs_per_s = sum(c.result["docs"] for c in ok) / sum(c.main_s for c in ok)
    return {"setup_s": summarize([c.setup_s for c in ok]),
            "docs_per_s": {"n": len(ok), "value": docs_per_s, "high": None},
            "wall_s": {"n": len(ok), "value": statistics.fmean(c.wall_s for c in ok),
                       "high": None},
            "peak_rss_mb": summarize([c.result["peak_rss_mb"] for c in ok])}


def per_layer(plain: list[Child], spans: list[Child], counts: list[Child],
              no_e: list[Child]) -> dict[str, float]:
    """Per-layer metrics: medians over the span processes, exact
    counts from the counting process. A metric of a layer the workload does
    not run is 0; trainer.speedup_without_e is measured on rst_edu only."""
    m = {name: 0.0 for name in PER_LAYER}
    traced = [c.result for c in spans if c.result is not None]
    if traced:
        def med(fn):
            return statistics.median(fn(r) for r in traced)

        def layer(r, name, key):
            return r["trace"]["layers"].get(name, {}).get(key, 0.0)

        for name in ("numcore.backward", "numcore.adam_step", "numcore.lstm_cell_step",
                     "edu_encoder.encode_edu", "tree_model.encode_subtree",
                     "tree_model.label_embedding", "parseq.encode_parseq",
                     "trainer.cross_entropy", "rst_data.parse_tree",
                     "rst_data.validate_tree"):
            if f"{name}.self_s" in m:
                m[f"{name}.self_s"] = med(lambda r: layer(r, name, "self_s"))
            if f"{name}.calls" in m:
                m[f"{name}.calls"] = med(lambda r: layer(r, name, "calls"))
        for name in ("numcore.save_checkpoint", "numcore.load_checkpoint",
                     "trainer.evaluate_model", "corpus.load_corpus",
                     "corpus.load_word_vectors", "cli.resolve_corpus",
                     "cli.load_model_from_checkpoint"):
            m[f"{name}.s"] = med(lambda r: layer(r, name, "total_s"))
        m["trainer.train.s"] = med(
            lambda r: layer(r, "trainer.train", "total_s")
            / max(1, layer(r, "trainer.train", "calls")))
        m["trainer.classify.train_s"] = med(lambda r: r["trace"]["classify_train_s"])
        m["trainer.classify.eval_s"] = med(lambda r: r["trace"]["classify_eval_s"])
        m["trainer.seed_overlap"] = med(
            lambda r: layer(r, "trainer.train", "cpu_s")
            / layer(r, "trainer.run_multi_seed", "total_s")
            if layer(r, "trainer.run_multi_seed", "total_s") else 0.0)
        first = traced[0]
        m["numcore.checkpoint_bytes"] = first.get("checkpoint_bytes", 0)
        m["corpus.docs_loaded"] = first["docs_loaded"]
        m["corpus.docs_excluded"] = first["docs_excluded"]
        walls = [c.wall_s for c in plain if c.result is not None]
        traced_walls = [c.wall_s for c in spans if c.result is not None]
        if walls:
            base = statistics.median(walls)
            m["trace_overhead_share"] = (statistics.median(traced_walls) - base) / base
    counted = [c.result for c in counts if c.result is not None]
    if counted:
        cnt = counted[0]["counts"]
        docs = max(1, cnt.get("docs", 0))
        ops = {kind: cnt.get(f"numcore.ops.{kind}", 0) for kind in OP_KINDS}
        m["numcore.ops_per_doc"] = sum(ops.values()) / docs
        for kind, n in ops.items():
            m[f"numcore.ops.{kind}"] = n / docs
        m["edu_encoder.tokens"] = cnt.get("edu_encoder.tokens", 0)
        m["tree_model.internal_nodes"] = cnt.get("tree_model.internal_nodes", 0)
    base = [c.docs_per_s for c in plain if c.result is not None]
    fast = [c.docs_per_s for c in no_e if c.result is not None]
    if base and fast:
        m["trainer.speedup_without_e"] = statistics.median(fast) / statistics.median(base)
    return m


# --- run ------------------------------------------------------------------------------


def run_record(name: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        rev = proc.stdout.strip() or None
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": rev, "source": source_hash(),
            "loadavg_1m": os.getloadavg()[0], "time": time.time()}


def measure(spec: dict, run_dir: Path, seconds: float, trace: int,
            deadline: float) -> tuple[list[Child], dict]:
    """Run measured processes on ``spec`` one after another for about ``seconds``.

    Untraced, the next one starts only if a process of median length still
    fits. Traced, one runs untraced, one with spans and one with op counters
    (and, on rst_edu, one without EDU embeddings), then more untraced/spans
    pairs while they fit. Returns every process and the traced run's plan by
    mode.
    """
    t0 = time.monotonic()
    children: list[Child] = []
    plan: dict[str, list[Child]] = {"plain": [], "spans": [], "counts": [], "no_e": []}

    def spawn(spec, mode, variant="main"):
        child = Child(spec, mode, run_dir, len(children), deadline, variant)
        children.append(child)
        plan["no_e" if variant == "no_e" else mode].append(child)
        return child

    if not trace:
        while True:
            if spawn(spec, "plain").result is None:
                return children, plan  # the output check reports the failure
            typical = statistics.median(c.seconds for c in children)
            if len(children) >= 2 and time.monotonic() - t0 + typical > seconds:
                return children, plan
    pair = spawn(spec, "plain").seconds + spawn(spec, "spans").seconds
    spawn(spec, "counts")
    if "config_no_e" in spec:
        spawn(spec, "plain", "no_e")
    while time.monotonic() - t0 + pair <= seconds:
        spawn(spec, "plain")
        spawn(spec, "spans")
    return children, plan


def inputs_digest(name: str) -> str:
    """Digests and references hold for one set of workload definitions."""
    return digest([WORKLOADS[name], TRAIN, GENERATOR, POOL])[:16]


def load_json(path: Path, default):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return default


def load_references(name: str, seed: int) -> list | None:
    """Recorded outputs of ``name`` at ``seed``, one per operation, or None."""
    try:
        lines = REFERENCES.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return None
    for line in lines:
        entry = json.loads(line)
        if entry["workload"] == name and entry["seed"] == seed:
            return entry["ops"]
    return None


def print_e2e(metrics: dict, children: list[Child], wl: dict) -> None:
    ok = [c for c in children if c.result is not None]
    print("per-process docs/s: " + " ".join(f"{c.docs_per_s:.2f}" for c in ok))
    label = "train" if wl["kind"] == "train" else "eval"
    how = {"setup_s": "median", "docs_per_s": f"{label}_docs_per_s, total",
           "wall_s": "mean", "peak_rss_mb": "median"}
    print(f"{'metric':<14} {'value':>12} {'unit':<7} samples")
    for name, unit in END_TO_END.items():
        s = metrics.get(name)
        if s is None:
            print(f"{name:<14} {'-':>12} {unit:<7} 0")
            continue
        high = f", p{s['high'][0]:g}={s['high'][1]:.4g}" if s["high"] else ""
        print(f"{name:<14} {s['value']:>12.4f} {unit:<7} {how[name]} over "
              f"n={s['n']} processes{high}")


def print_layers(m: dict, plan: dict) -> None:
    traced = [c.result for c in plan["spans"] if c.result is not None]
    layers = traced[0]["trace"]["layers"] if traced else {}
    total_self = sum(e["self_s"] for name, e in layers.items()
                     if name not in INNER_SPANS) or 1.0
    print(f"{'span (first traced process)':<34} {'calls':>8} {'self_s':>9} "
          f"{'share':>6} {'per-call median':>16} high percentile")
    for name, e in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        pc = e["per_call"]
        high = f"p{pc['high'][0]:g}={pc['high'][1] * 1e3:.3f} ms" if pc["high"] else "-"
        print(f"{name:<34} {e['calls']:>8} {e['self_s']:>9.3f} "
              f"{e['self_s'] / total_self:>6.1%} {pc['value'] * 1e3:>13.3f} ms "
              f"{high} (n={pc['n']})"
              + ("  [inside its caller's self time]" if name in INNER_SPANS else ""))
    absent = traced[0]["trace"]["absent"] if traced else []
    for target in absent:
        print(f"absent wrap target: {target}")
    print(f"{'per-layer metric (median over ' + str(len(traced)) + ' traced processes)':<46}"
          f" {'value':>14} unit")
    for name, unit in PER_LAYER.items():
        print(f"{name:<46} {m[name]:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help='one workload, or "all" to run each in turn')
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rstcoh" / "__init__.py").is_file():
        print(f"perfbench: no rstcoh sources under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
               for name in names)


def run_workload(args: argparse.Namespace) -> int:
    """Measure one workload and print its report; 0 if every output checked."""
    t_begin = time.monotonic()
    deadline = t_begin + CHILD_TIMEOUT_S
    wl = WORKLOADS[args.workload]
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    record["inputs"] = inputs_digest(args.workload)
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        t_prep = time.monotonic()
        spec = prepare(args.workload, args.seed, run_dir)
        prep_s = time.monotonic() - t_prep
        children, plan = measure(spec, run_dir, args.seconds, args.trace, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    references = load_references(args.workload, args.seed)
    seen_path = WORK / f"digests-{record['source']}-{record['inputs']}.json"
    seen = load_json(seen_path, {})
    attempted, failed, problems = check_outputs(args.workload, args.seed, children,
                                                wl, references, seen)
    seen_path.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={record['nproc']} python={record['python']} numpy={record['numpy']} "
          f"rev={record['git_rev']} loadavg_1m={record['loadavg_1m']:.2f}")
    sizes = (f"{wl['n_train']} train + {wl['n_test']} test" if wl["kind"] == "train"
             else f"{wl['n_test']} test")
    print(f"inputs: {sizes} documents, model "
          f"{wl['model']} [{wl['features']}], prepared in {prep_s:.2f} s; "
          f"{len(children)} measured processes in {time.monotonic() - t_begin:.1f} s")
    if args.trace:
        metrics = per_layer(plan["plain"], plan["spans"], plan["counts"], plan["no_e"])
        print_layers(metrics, plan)
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
        # Baseline facts of this commit, reported rather than enforced:
        # later changes to the seed pool and the EDU encoder should move them.
        if args.workload == "ensemble_seeds":
            overlap = metrics["trainer.seed_overlap"]
            print(f"baseline fact: seeds in the thread pool do not overlap usefully "
                  f"(trainer.seed_overlap {overlap:.3f} < 1.5): {overlap < 1.5}")
        if args.workload == "rst_edu":
            speedup = metrics["trainer.speedup_without_e"]
            print(f"baseline fact: rst t,ns,r trains several times faster than "
                  f"t,ns,r,e (trainer.speedup_without_e {speedup:.2f} >= 2): "
                  f"{speedup >= 2}")
    else:
        e2e = end_to_end(children)
        print_e2e(e2e, children, wl)
        out = {name: {"value": e2e[name]["value"], "unit": unit}
               for name, unit in END_TO_END.items() if name in e2e}
    print(f"failed_share   {failed}/{attempted} = {failed / attempted:.4f} "
          f"(operations: one seed's training run or one evaluate_model call)")
    for problem in problems:
        print(f"output check FAILED: {problem}")
    print(f"output check: {'ok' if not problems else 'FAILED'} "
          f"({'against the' if references else 'no'} reference recorded for this seed)")
    correct = not problems and len(out) == len(
        PER_LAYER if args.trace else END_TO_END)
    outputs = None
    if correct:  # every process repeated these bit for bit
        outputs = [reference_view(op) for op in plan["plain"][0].result["ops"]]
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"record": record, "correct": correct,
                             "attempted": attempted, "failed": failed,
                             "metrics": out, "outputs": outputs}, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
