"""Show that the output checks accept right output and reject wrong output.

    python3 bench/selftest.py [--seed N]

Runs every invocation of every workload once, checks its real stdout, then
checks wrong versions of it: empty output, and one coefficient or eval
digit changed; for verify, one suite's status set to fail, its n range
shortened, or one of its lambdas dropped. Exit code 0 only when every real
output passes and every wrong one is rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import run
import workloads


def _bump(digit: str) -> str:
    return str(int(digit) + 1) if digit != "9" else "8"


def _verify_corruptions(text: str) -> dict:
    """A verify report with a failed suite, a shorter n sweep, a dropped lambda."""
    out = {}
    for kind in ("suite status fail", "n_range shortened", "one lambda dropped"):
        report = json.loads(text)
        suite = report["suites"][0]
        if kind == "suite status fail":
            suite["status"] = "fail"
        elif kind == "n_range shortened":
            suite["n_range"][1] -= 1
        elif suite["lambdas"]:
            del suite["lambdas"][len(suite["lambdas"]) // 2]
        else:
            continue
        out[kind] = json.dumps(report, indent=2) + "\n"
    return out


def corruptions(argv, text: str) -> dict:
    """Wrong versions of `text`, each with exactly one reported value changed."""
    if argv[0] == "verify":
        return _verify_corruptions(text)
    if argv[0] == "eval":
        return {"one value changed": text[:-2] + _bump(text[-2]) + "\n"}
    lines = text.split("\n")
    if argv[0] == "table":
        candidates = list(range(1, len(lines) - 1))
    else:
        candidates = [i for i, line in enumerate(lines) if re.match(r'\s*"\d+": "', line)]
    i = candidates[len(candidates) // 2]
    digit = max(m.start() for m in re.finditer(r"\d", lines[i]))
    lines[i] = lines[i][:digit] + _bump(lines[i][digit]) + lines[i][digit + 1:]
    return {"one value changed": "\n".join(lines)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    import checks

    run.OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    problems = 0
    for name in workloads.NAMES:
        for inv in workloads.build(name, args.seed).invocations:
            child = run.spawn([sys.executable, str(run.BENCH / "shim.py"), *inv.argv], env)
            text = child.stdout.decode()
            if child.code != 0:
                verdicts = {"real": f"exit {child.code}"}
            else:
                wrong = {"empty": "", **corruptions(inv.argv, text)}
                verdicts = {"real": checks.check(inv.argv, text)}
                verdicts.update((kind, checks.check(inv.argv, bad)) for kind, bad in wrong.items())
            ok = verdicts["real"] is None and len(verdicts) > 2 and all(
                reason for kind, reason in verdicts.items() if kind != "real"
            )
            problems += not ok
            print(f"{'ok  ' if ok else 'BAD '} {name}: legscale {' '.join(inv.argv)}")
            for kind, reason in verdicts.items():
                print(f"       {kind}: {reason or 'accepted'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
