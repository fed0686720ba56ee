"""Collect bench/out/result-*.json files into one trajectory point.

    python3 bench/summarize.py OUT.json

For every workload and trace mode found, records the seeds run, the argv
list of each seed, why the workload was chosen, and per metric the median,
quartiles and spread (quartile distance over the median) across the runs.
Untraced runs also get the wall times the probe scaling leaves out:
raw_pass_s, raw_setup_s and the median probe time probe_s; traced runs
list the growth exponents the workload does not measure (they read 0).
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main() -> int:
    runs = [json.loads(p.read_text()) for p in sorted(OUT.glob("result-*.json"))]
    summary: dict = {"python": platform.python_version(), "workloads": {}}
    for run in runs:
        entry = summary["workloads"].setdefault(run["workload"], {"why": run["why"], "modes": {}})
        mode = entry["modes"].setdefault(f"trace{run['trace']}", {"seeds": {}, "metrics": {}})
        mode["seeds"][str(run["seed"])] = {"argv": run["argv"], "correct": run["correct"]}
        for name, metric in run["metrics"].items():
            mode["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
        if run.get("not_measured"):
            mode["not_measured"] = sorted(run["not_measured"])
        for name, value in run.get("raw", {}).items():
            mode.setdefault("raw", {}).setdefault(name, {"unit": "s", "values": []})["values"].append(value)
    for entry in summary["workloads"].values():
        for mode in entry["modes"].values():
            for metric in [*mode["metrics"].values(), *mode.get("raw", {}).values()]:
                values = metric.pop("values")
                median = statistics.median(values)
                metric["runs"] = len(values)
                metric["median"] = median
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    metric["quartiles"] = [q1, q3]
                    metric["spread"] = (q3 - q1) / median if median else None
    Path(sys.argv[1]).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
