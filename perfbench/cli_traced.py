"""Run one polysplit CLI command with spans installed.

    python perfbench/cli_traced.py SPANS_PATH JOB -- CLI_ARGS...

Installs the wrappers, calls ``polysplit.cli.main(CLI_ARGS)`` and writes the
spans to SPANS_PATH; the exit code is the CLI's.
"""

import sys

import spans


def main(argv):
    path, job, sep, cli_args = argv[0], int(argv[1]), argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SPANS_PATH JOB -- CLI_ARGS...")
    recorder = spans.Recorder()
    spans.install(recorder)
    recorder.job = job
    import polysplit.cli

    try:
        return polysplit.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
