"""One measured invocation: what ``rstcoh train`` or ``rstcoh evaluate`` does,
split into phases timed from outside the program.

Usage: python3 perfbench/invoke.py SPEC_JSON RESULT_JSON

SPEC_JSON names the config file, the artifact path, the checkpoint (for
evaluation) and the mode: "plain" (no wrappers), "spans" or "counts" (see
tracing.py). RESULT_JSON receives CLOCK_MONOTONIC timestamps of the phase
boundaries, so the caller can time set-up from the moment it started this
process, plus each operation's outputs and the trace.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _trace_result(tracer, tracing) -> dict:
    threads = tracer.threads()
    layers = {}
    for name, entry in tracing.span_stats(threads).items():
        durations = entry.pop("durations")
        entry["per_call"] = tracing.summarize(durations)
        layers[name] = entry
    eval_s, train_s = tracing.total_under(threads, "trainer.classify",
                                          "trainer.evaluate_model")
    return {"layers": layers, "classify_eval_s": eval_s,
            "classify_train_s": train_s, "absent": tracer.absent}


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    out = {"mode": mode, "ops": []}

    import rstcoh  # set-up includes importing the program
    from rstcoh import cli, numcore as nc, trainer

    out["rstcoh_file"] = os.path.abspath(rstcoh.__file__)
    tracer = None
    if mode != "plain":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.Tracer()
        if mode == "spans":
            tracer.install_spans()
        else:
            tracer.install_counters()

    # Same public calls, in the same order, as cli.cmd_train / cmd_evaluate.
    config = cli.load_config(spec["config"], argparse.Namespace())
    if spec["kind"] == "train":
        cfg = cli.make_train_config(config)
        split, wv = cli.resolve_corpus(config)
    else:
        model, _ = cli.load_model_from_checkpoint(spec["checkpoint"])
        out["checkpoint_bytes"] = os.path.getsize(spec["checkpoint"])
        split, wv = cli.resolve_corpus(config)
    out["t_setup"] = time.monotonic()
    out["docs_loaded"] = len(split.train) + len(split.test)
    out["docs_excluded"] = len(split.exclusion_log)

    if spec["kind"] == "train":
        n_runs = config["n_runs"]
        out["docs"] = n_runs * cfg.epochs * len(split.train)
        out["t_main"] = time.monotonic()
        try:
            result = trainer.run_multi_seed(cfg, split, wv, n_runs,
                                            workers=config["workers"])
        except Exception:  # every seed of the call counts as failed
            out["t_main_end"] = time.monotonic()
            out["ops"] = [{"error": traceback.format_exc(limit=3)}] * n_runs
        else:
            out["t_main_end"] = time.monotonic()
            out["ops"] = [{"seed": rec.seed, "diverged_on": rec.diverged_on,
                           "epoch_losses": rec.epoch_losses,
                           "report": rec.report.to_dict() if rec.report else None}
                          for rec in result.records]
            if result.best_model is not None:
                meta = cli._checkpoint_meta(cfg, result.best_model, wv,
                                            result.best_seed)
                nc.save_checkpoint(spec["artifact"], result.best_model.bundle, meta)
                out["checkpoint_bytes"] = os.path.getsize(spec["artifact"])
    else:
        out["docs"] = len(split.test)
        out["t_main"] = time.monotonic()
        try:
            rep = trainer.evaluate_model(model, split.test, wv)
        except Exception:
            out["t_main_end"] = time.monotonic()
            out["ops"] = [{"error": traceback.format_exc(limit=3)}]
        else:
            out["t_main_end"] = time.monotonic()
            out["ops"] = [{"report": rep.to_dict()}]
            with open(spec["artifact"], "w", encoding="utf-8") as fh:
                json.dump({"config": config, "report": rep.to_dict()}, fh,
                          indent=2, sort_keys=True)
                fh.write("\n")
    out["t_end"] = time.monotonic()
    out["peak_rss_mb"] = _peak_rss_mb()

    if tracer is not None:
        tracer.uninstall()
        if mode == "spans":
            out["trace"] = _trace_result(tracer, tracing)
        else:
            out["counts"] = tracer.counts()
            out["absent"] = tracer.absent
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
