"""The process that runs a workload's tasks, as `parcap run` would.

    python3 perfbench/worker.py PLAN.json RESULT.json [--setup-only]

It imports parcap from the checkout's `src`, parses the first config and
notes the monotonic clock: that instant ends set-up.  With --setup-only it
stops there.  Otherwise it runs rounds of the plan's tasks through
`parcap.cli.main` until the next round would end past the plan's seconds,
each round into its own output directory, and records per round the wall
time, exit codes, traced per-layer metrics and the process's peak RSS so far.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import parcap.cli as cli  # noqa: E402  numpy, scipy.optimize (HiGHS), scipy.special

T_IMPORTED = time.monotonic()


def run_round(tasks, out_dir):
    codes = []
    start = time.perf_counter()
    for task in tasks:
        argv = ["run", task["config"], "--emit", task["emit"], "--out", str(out_dir / task["name"])]
        codes.append(cli.main(argv))
    return time.perf_counter() - start, codes


def run_rounds(plan):
    tracer = None
    if plan["trace"]:
        from tracer import Tracer  # perfbench/ is this script's directory

        tracer = Tracer()
    tasks, seconds = plan["tasks"], plan["seconds"]
    rounds = []
    begin = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced rounds: the difference
        # of their mean wall times is the tracing overhead
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, codes = run_round(tasks, Path(plan["out"]) / f"round{len(rounds)}")
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({
            "wall_s": wall,
            "exit_codes": codes,
            "traced": traced,
            "layers": tracer.metrics(wall) if traced else None,
            # peak RSS so far: after the first round it is what one pass of
            # the tasks needs; later rounds in the same process can raise it
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })
        elapsed = time.perf_counter() - begin
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def main(argv):
    plan_path, result_path = Path(argv[0]), Path(argv[1])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    json.loads(Path(plan["tasks"][0]["config"]).read_text(encoding="utf-8"))
    result = {"ready": time.monotonic(), "import_s": T_IMPORTED - T_START}
    if "--setup-only" not in argv:
        result["rounds"] = run_rounds(plan)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
