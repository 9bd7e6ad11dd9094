"""Write perfbench/baseline.json and perfbench/references.jsonl from the runs
logged in perfbench/.work/.

Usage, from the root of a checkout, after running run.py on several seeds
of every workload (with --trace 0, and once with --trace 1):

    python3 perfbench/record_baseline.py

Only correct runs of the current source tree and workload definitions are
used. The file records, per workload, the median and quartiles of each
end-to-end metric over those runs, the per-layer metrics of the last traced
run and the run record (machine, versions, git rev). references.jsonl holds
each seed's outputs, one line per workload and seed, which later runs must
match within run.REL_TOL.
"""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    source = run.source_hash()
    runs = []
    with open(run.WORK / "results.jsonl", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            rec = entry["record"]
            if (entry["correct"] and rec["source"] == source
                    and rec.get("inputs") == run.inputs_digest(rec["workload"])):
                runs.append(entry)
    if not runs:
        print("no correct runs of this source tree in results.jsonl", file=sys.stderr)
        return 1
    baseline = {"rel_tol": run.REL_TOL, "end_to_end": {}, "per_layer": {}}
    references = []
    last = runs[-1]["record"]
    baseline["run_record"] = {k: last[k] for k in ("nproc", "python", "numpy",
                                                   "git_rev", "source")}
    for name in run.WORKLOADS:
        plain = [e for e in runs if e["record"]["workload"] == name
                 and not e["record"]["trace"]]
        traced = [e for e in runs if e["record"]["workload"] == name
                  and e["record"]["trace"]]
        if plain:
            table = {"runs": len(plain),
                     "seeds": sorted({e["record"]["seed"] for e in plain}),
                     "loadavg_1m": [e["record"]["loadavg_1m"] for e in plain]}
            for metric in run.END_TO_END:
                values = [e["metrics"][metric]["value"] for e in plain]
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                    else (values[0],) * 3
                median = statistics.median(values)
                table[metric] = {"median": median, "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / median}
            baseline["end_to_end"][name] = table
        if traced:
            baseline["per_layer"][name] = {k: v["value"]
                                           for k, v in traced[-1]["metrics"].items()}
        outputs = {e["record"]["seed"]: e["outputs"] for e in plain + traced}
        references += [{"workload": name, "seed": seed, "ops": ops}
                       for seed, ops in sorted(outputs.items())]
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    run.REFERENCES.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                      for r in references), encoding="utf-8")
    print(f"wrote {run.BASELINE} and {run.REFERENCES} from {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
