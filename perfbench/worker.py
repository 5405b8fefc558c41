"""Child interpreter for the in-process workloads.

    python perfbench/worker.py WORKLOAD SEED [--prepare] [--spans PATH]

Imports polysplit, runs the workload's set-up, prints ``ready`` and waits
for one line on stdin: ``exit``, or ``run SECONDS MAX_ROUNDS``.  It then runs
rounds of jobs while the next round is expected to end within SECONDS (at
least one, at most MAX_ROUNDS; 0 means no cap), checks each output after its
timer stops, and prints one JSON line with the per-round timings.
``--prepare`` only fills the disk cache the set-up reads, and exits.
"""

import argparse
import json
import sys
import traceback
from time import perf_counter, process_time

import spans
import speed

# Spans opened outside set-up and timed jobs (input generation, output
# checks) carry this job id and are left out of the per-layer figures.
UNTIMED_JOB = -2


def run_rounds(workload, seed, seconds, max_rounds, corrupt, recorder):
    """Rounds of timed jobs; each job is [name, wall_s, cpu_s, ok, slot], slot
    being its position in the run, which places it among the speed probes."""
    import workloads

    make_round = workloads.ROUNDS[workload]
    timeline = speed.Timeline()
    rounds = []
    errors = []
    slot = 0
    began = perf_counter()
    longest = 0.0
    while True:
        index = len(rounds)
        round_began = perf_counter()
        if recorder:
            recorder.job = UNTIMED_JOB
        jobs = make_round(seed, index)
        record = []
        for position, (name, run, check, damage) in enumerate(jobs):
            timeline.before_job()
            if recorder:
                recorder.job = index
            wall0, cpu0 = perf_counter(), process_time()
            try:
                result = run()
                raised = None
            except Exception:  # a failed job is counted, not fatal
                raised = traceback.format_exc(limit=3)
            wall, cpu = perf_counter() - wall0, process_time() - cpu0
            if recorder:
                recorder.job = UNTIMED_JOB
            if raised is None:
                if corrupt and index == 0 and position == 0:
                    result = damage(result)
                try:
                    reason = check(result)
                except Exception:
                    reason = traceback.format_exc(limit=3)
            else:
                reason = raised
            if reason is not None:
                errors.append("round %d job %d (%s): %s" % (index, position, name, reason))
            record.append([name, wall, cpu, reason is None, slot])
            slot += 1
        rounds.append(record)
        longest = max(longest, perf_counter() - round_began)
        if max_rounds and len(rounds) >= max_rounds:
            break
        if perf_counter() - began + longest > seconds:
            break
    timeline.finish()
    return {"rounds": rounds, "probes": timeline.probes, "errors": errors}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.spans:
        recorder = spans.Recorder()
        spans.install(recorder)
    import workloads

    if args.prepare:
        workloads.session_tables()
        return 0
    workloads.SETUPS[args.workload]()
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    seconds, max_rounds = float(command[1]), int(command[2])
    result = run_rounds(args.workload, args.seed, seconds, max_rounds,
                        args.corrupt, recorder)
    if recorder:
        recorder.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
