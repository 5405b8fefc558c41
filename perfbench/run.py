"""The polysplit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see README.md):

* ``tables-cold``  -- one fresh ``python -m polysplit.cli`` per job, with an
  empty cache directory per round: ``--no-cache verify appendix
  --max-degree 9``, then ``arr table --degree 9 --tag ainv`` twice (computed,
  then served from the disk cache).
* ``zeta-rings``   -- in one child interpreter: seeded forward/inverse zeta
  round trips over every ring, plus the paper's hypersurface and
  character-variety jobs.
* ``session-warm`` -- in one child interpreter, after loading the degree <= 8
  tables from a disk cache and building the E and P basis matrices: seeded
  basis conversions, products, Adams operations and degree 9-12
  arrangement queries.

Each workload is a closed loop with one client.  A round is the workload's
fixed list of jobs; rounds repeat while the next one is expected to end
within S seconds (at least one round).  Every output is checked after its
timer stops.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a separate traced run) with
``--trace 1``.  ``--corrupt`` damages one result, for the self-test.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("tables-cold", "zeta-rings", "session-warm")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170

# Degree 9, not the degree-10 headline table: on a shared 2-core Xeon VM a
# degree-10 round takes about 15 s, a 35-second run holds one or two, and
# its times spread by 20% between runs; a degree-9 round takes about 6 s.
TABLE_DEGREE = 9
TABLE_ARGS = ["arr", "table", "--degree", str(TABLE_DEGREE), "--tag", "ainv", "--format", "json"]
CLI_JOBS = [
    ("verify-appendix", ["--no-cache", "verify", "appendix", "--max-degree", str(TABLE_DEGREE)]),
    ("table-computed", TABLE_ARGS),
    ("table-disk", TABLE_ARGS),
]

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metric -> (span name, field).  Fields: calls, self (duration
# minus child spans) and total.  Calls count set-up plus the first round, so
# they repeat exactly for a seed; times are set-up plus the median round.
PER_LAYER = {
    "arrangements.count_arrangements.calls": ("arrangements.count_arrangements", "calls"),
    "arrangements.count_arrangements.self_s": ("arrangements.count_arrangements", "self"),
    "arrangements.leq.calls": ("arrangements.leq", "calls"),
    "arrangements.leq.self_s": ("arrangements.leq", "self"),
    "arrangements.top_column_inverse.self_s": ("arrangements.top_column_inverse", "self"),
    "arrangements.incidence_table.computed": ("arrangements.incidence_table.computed", "calls"),
    "arrangements.incidence_table.disk": ("arrangements.incidence_table.disk", "calls"),
    "arrangements.incidence_table.memory": ("arrangements.incidence_table.memory", "calls"),
    "arrangements.incidence_table.computed_self_s":
        ("arrangements.incidence_table.computed", "self"),
    "arrangements.incidence_table.disk_s": ("arrangements.incidence_table.disk", "total"),
    "rings.Poly.mul.calls": ("rings.Poly.mul", "calls"),
    "rings.Poly.mul.self_s": ("rings.Poly.mul", "self"),
    "rings.poly_divmod.calls": ("rings.poly_divmod", "calls"),
    "rings.poly_divmod.self_s": ("rings.poly_divmod", "self"),
    "rings.ser_kernels.calls": ("rings.ser_kernels", "calls"),
    "rings.ser_kernels.self_s": ("rings.ser_kernels", "self"),
    "rings.MPoly.mul.calls": ("rings.MPoly.mul", "calls"),
    "rings.MPoly.mul.self_s": ("rings.MPoly.mul", "self"),
    "plethysm.invert_zeta.calls": ("plethysm.invert_zeta", "calls"),
    "plethysm.invert_zeta.self_s": ("plethysm.invert_zeta", "self"),
    "plethysm.forward_zeta.calls": ("plethysm.forward_zeta", "calls"),
    "plethysm.forward_zeta.self_s": ("plethysm.forward_zeta", "self"),
    "polysym.convert.calls": ("polysym.convert", "calls"),
    "polysym.convert.self_s": ("polysym.convert", "self"),
    "polysym.multiply.self_s": ("polysym.multiply", "self"),
    "polysym.adams_ps.self_s": ("polysym.adams_ps", "self"),
    "applications.self_s": ("applications", "self"),
    "types.enumerate_types.calls": ("types.enumerate_types", "calls"),
    "types.enumerate_types.self_s": ("types.enumerate_types", "self"),
    "cli.main.self_s": ("cli.main", "self"),
}
FIELD_UNITS = {"calls": "count", "self": "s", "total": "s"}


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout("the run took longer than %d s" % RUN_LIMIT_S)


class Children:
    """Starts child interpreters one at a time and reaps each with its own
    resource usage (CPU time and peak RSS)."""

    def __init__(self, env):
        self.env = env
        self.live = None

    def start(self, args, env=None, **kwargs):
        self.live = subprocess.Popen([sys.executable] + args, cwd=ROOT,
                                     env=env or self.env, **kwargs)
        return self.live

    def reap(self, proc):
        for stream in (proc.stdin, proc.stdout):
            if stream:
                stream.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live = None
        return proc.returncode, usage

    def close(self):
        proc = self.live
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


class Run:
    """State of one benchmark run: its scratch directory, children and
    results.  A job is recorded as [name, wall_s, cpu_s, ok, probe_s], with
    probe_s the speed probe around it (see speed.py)."""

    def __init__(self, args, tmp):
        self.args = args
        self.tmp = tmp
        env = dict(os.environ)
        env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0",
                   POLYSPLIT_CACHE_DIR=os.path.join(tmp, "cache"))
        self.children = Children(env)
        self.setup = []       # (seconds, probe_s) per set-up
        self.rounds = []      # timed rounds, each a list of jobs
        self.reference = None  # the untraced first round, in trace mode
        self.probes = []
        self.errors = []
        self.peak_rss_kb = 0
        self.spans = {}

    def spans_path(self, tag):
        return os.path.join(self.tmp, "spans-%s.bin" % tag)

    def add_spans(self, path):
        import spans
        spans.aggregate(path, self.spans)

    def resolve(self, rounds, probes):
        """Replace each job's slot by the probe time around it."""
        self.probes.extend(t for _, t in probes)
        return [[job[:4] + [speed.local_probe(probes, job[4])] for job in jobs]
                for jobs in rounds]

    # -- tables-cold ---------------------------------------------------------

    # Its jobs run for seconds in child processes, so a probe between them
    # says little about the speed during them: on five seeds, scaling made
    # the spread of this workload's times no smaller.  They are reported as
    # timed.

    def time_imports(self):
        for _ in range(SETUP_REPEATS):
            began = perf_counter()
            proc = self.children.start(["-c", "import polysplit.cli"])
            code, _ = self.children.reap(proc)
            if code != 0:
                raise RuntimeError("importing polysplit failed with exit code %d" % code)
            self.setup.append((perf_counter() - began, None))

    def cli_job(self, index, position, env, traced):
        """One CLI process; returns its output, exit code, wall and CPU time."""
        name, argv = CLI_JOBS[position]
        tag = "%d-%s-%d" % (index, "traced" if traced else "plain", position)
        out_path = os.path.join(self.tmp, "out-" + tag)
        if traced:
            spans_path = self.spans_path(tag)
            args = [os.path.join(HERE, "cli_traced.py"), spans_path, str(index), "--"]
        else:
            args = ["-m", "polysplit.cli"]
        with open(out_path, "wb") as out:
            began = perf_counter()
            proc = self.children.start(args + argv, env=env, stdout=out)
            code, usage = self.children.reap(proc)
            wall = perf_counter() - began
        if traced:
            self.add_spans(spans_path)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, "rb") as handle:
            return handle.read(), code, wall, _cpu(usage)

    def check_cli(self, index, name, code, output, computed):
        import workloads

        try:
            if name == "verify-appendix":
                return workloads.check_appendix(code, output.decode(), TABLE_DEGREE)
            if name == "table-computed":
                parsed = workloads.parse_table(output) if code == 0 else None
                if self.args.corrupt and index == 0 and parsed:
                    parsed = workloads.corrupt_table(parsed)
                return workloads.check_inverse_table(code, parsed, TABLE_DEGREE)
            if code != 0:
                return "exit code %d" % code
            if output != computed:
                return "disk-served table differs from the computed one"
            return None
        except Exception as exc:  # a malformed output is a failed job
            return "%s: %s" % (type(exc).__name__, exc)

    def cli_rounds(self, traced, seconds, max_rounds=0):
        """Rounds of the three CLI jobs, each round with an empty cache."""
        rounds = []
        began = perf_counter()
        longest = 0.0
        while True:
            index = len(rounds)
            round_began = perf_counter()
            cache = "cache-%d-%s" % (index, "traced" if traced else "plain")
            env = dict(self.children.env, POLYSPLIT_CACHE_DIR=os.path.join(self.tmp, cache))
            jobs = []
            computed = None
            for position, (name, _) in enumerate(CLI_JOBS):
                output, code, wall, cpu = self.cli_job(index, position, env, traced)
                if name == "table-computed":
                    computed = output
                reason = self.check_cli(index, name, code, output, computed)
                if reason is not None:
                    self.errors.append("round %d %s: %s" % (index, name, reason))
                jobs.append([name, wall, cpu, reason is None, None])
            rounds.append(jobs)
            longest = max(longest, perf_counter() - round_began)
            if max_rounds and len(rounds) >= max_rounds:
                break
            if perf_counter() - began + longest > seconds:
                break
        return rounds

    def tables_cold(self):
        if self.args.trace:
            began = perf_counter()
            self.reference = self.cli_rounds(False, 0, max_rounds=1)[0]
            remaining = self.args.seconds - (perf_counter() - began)
            self.rounds = self.cli_rounds(True, remaining)
        else:
            self.time_imports()
            self.rounds = self.cli_rounds(False, self.args.seconds)

    # -- in-process workloads --------------------------------------------------

    def worker(self, setups, seconds, max_rounds, spans_path=None):
        """Start the worker ``setups`` times, timing start-up plus set-up
        until it is ready; the last one runs the rounds."""
        args = [os.path.join(HERE, "worker.py"), self.args.workload, str(self.args.seed)]
        if spans_path:
            args += ["--spans", spans_path]
        if self.args.corrupt:
            args.append("--corrupt")
        timeline = speed.Timeline()
        samples = []
        for attempt in range(setups):
            timeline.before_job()
            began = perf_counter()
            proc = self.children.start(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            line = proc.stdout.readline()
            samples.append(perf_counter() - began)
            if line.strip() != b"ready":
                self.children.reap(proc)
                raise RuntimeError("the worker failed during set-up")
            if attempt < setups - 1:
                proc.stdin.write(b"exit\n")
                self.children.reap(proc)
        timeline.finish()
        self.setup = [(t, speed.local_probe(timeline.probes, i))
                      for i, t in enumerate(samples)]
        proc.stdin.write(b"run %r %d\n" % (seconds, max_rounds))
        proc.stdin.flush()
        line = proc.stdout.readline()
        code, usage = self.children.reap(proc)
        if code != 0 or not line:
            raise RuntimeError("the worker exited with code %d" % code)
        result = json.loads(line)
        self.errors.extend(result["errors"])
        return self.resolve(result["rounds"], result["probes"]), usage

    def in_process(self):
        if self.args.workload == "session-warm":
            proc = self.children.start([os.path.join(HERE, "worker.py"),
                                        self.args.workload, "0", "--prepare"])
            if self.children.reap(proc)[0] != 0:
                raise RuntimeError("preparing the disk cache failed")
        if self.args.trace:
            began = perf_counter()
            self.reference = self.worker(1, 0, 1)[0][0]
            remaining = self.args.seconds - (perf_counter() - began)
            path = self.spans_path("worker")
            self.rounds, _ = self.worker(1, remaining, 0, spans_path=path)
            self.add_spans(path)
        else:
            self.rounds, usage = self.worker(SETUP_REPEATS, self.args.seconds, 0)
            self.peak_rss_kb = usage.ru_maxrss

    # -- results ---------------------------------------------------------------

    def jobs(self):
        runs = self.rounds + ([self.reference] if self.reference else [])
        return [job for jobs in runs for job in jobs]

    def end_to_end(self, scaled=True):
        """The end-to-end metrics; with scaled=False, as timed, without the
        speed probe."""
        def t(seconds, probe_s):
            return speed.scale(seconds, probe_s) if scaled else seconds

        times = sorted(t(wall, p) * 1000.0 for jobs in self.rounds
                       for _, wall, _, _, p in jobs)
        if len(times) > 1:
            p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        else:
            p90 = times[0]
        return {
            "setup_s": statistics.median(t(s, p) for s, p in self.setup),
            "wall_s": statistics.median(_round_sum(jobs, 1, t) for jobs in self.rounds),
            "cpu_s": statistics.median(_round_sum(jobs, 2, t) for jobs in self.rounds),
            "job_p50_ms": statistics.median(times),
            "job_p90_ms": p90,
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
        }

    def per_layer(self):
        """Per-layer figures from the spans, times put on the reference speed
        with the run's median probe."""
        import spans

        factor = speed.scale(1.0, statistics.median(self.probes) if self.probes else None)
        setup = self.spans.get(spans.SETUP_JOB, {})
        rounds = [self.spans.get(i, {}) for i in range(len(self.rounds))]
        column = {"calls": 0, "total": 1, "self": 2}

        def field(cells, name, which):
            cell = cells.get(name)
            return 0 if cell is None else cell[column[which]]

        out = {}
        for metric, (name, which) in PER_LAYER.items():
            if which == "calls":
                value = field(setup, name, which) + field(rounds[0], name, which)
            else:
                value = factor * (field(setup, name, which) + statistics.median(
                    field(r, name, which) for r in rounds))
            out[metric] = (value, FIELD_UNITS[which])

        def wall(jobs):
            return _round_sum(jobs, 1, speed.scale)

        out["trace.overhead_s"] = (wall(self.rounds[0]) - wall(self.reference), "s")
        return out


def _round_sum(jobs, column, t):
    return sum(t(job[column], job[4]) for job in jobs)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _pin_to_one_cpu():
    """Keep this process and its children on one CPU, the highest allowed,
    so that the speed probes run where the jobs run; returns that CPU."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _git_commit():
    """HEAD of the checkout, read from its .git directory when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one result after its timer stops (self-test)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polysplit", "__init__.py")):
        print("error: no polysplit sources under %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2
    env_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(), "commit": _git_commit(),
    }
    env_record["cpu"] = _pin_to_one_cpu()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    tmp = tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT)
    run = None
    try:
        run = Run(args, tmp)
        # The checks import polysplit here too; keep it off the user's cache.
        os.environ["POLYSPLIT_CACHE_DIR"] = run.children.env["POLYSPLIT_CACHE_DIR"]
        sys.path[1:1] = [SRC]
        if args.workload == "tables-cold":
            run.tables_cold()
        else:
            run.in_process()
        if args.trace:
            metrics = run.per_layer()
        else:
            values = run.end_to_end()
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            unscaled = run.end_to_end(scaled=False)
    except (RunTimeout, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        if run is not None:
            run.children.close()
        shutil.rmtree(tmp, ignore_errors=True)
    env_record["loadavg_end"] = os.getloadavg()

    attempted = len(run.jobs())
    failed = sum(1 for job in run.jobs() if not job[3])
    for line in run.errors:
        print("failed: " + line, file=sys.stderr)
    print("env " + json.dumps(env_record))
    print("rounds %d, jobs %d" % (len(run.rounds), attempted))
    if run.probes:
        print("median speed probe %.6f s, reference %.6f s"
              % (statistics.median(run.probes), speed.REFERENCE_S))
    if run.probes and not args.trace:
        print("as timed, without the probe: " + ", ".join(
            "%s %.6f" % (name, unscaled[name]) for name, _ in END_TO_END))
    for name, (value, unit) in metrics.items():
        shown = "%d" % value if unit == "count" else "%.6f" % value
        print("%-48s %16s %s" % (name, shown, unit))
    print("%-48s %16.6f (%d of %d jobs failed)"
          % ("error_rate", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
