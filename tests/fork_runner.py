"""Run colorcut commands in forked children of one process that imports
colorcut once.

Each line on stdin is a JSON request {"argv": [...], "cwd": PATH, "limit":
BYTES}. For each, the runner forks a child that sets its own RLIMIT_AS to
the limit, changes to cwd and runs the CLI with argv as
`python -m colorcut` would: an uncaught exception prints its traceback and
exits 1. A child still running after 300 s is killed by SIGALRM. The
runner answers each request with one JSON line {"returncode": ...,
"stdout": ..., "stderr": ...}, where a child killed by signal N has
returncode -N. It exits when stdin closes.

Usage: python tests/fork_runner.py, with colorcut importable.
"""

import json
import os
import resource
import signal
import sys
import tempfile
import traceback

from colorcut import cli


def run_child(argv, cwd, limit, out, err) -> None:
    """In the forked child: run one command with its stdout and stderr in
    the files out and err, then exit with its code."""
    os.dup2(out.fileno(), 1)
    os.dup2(err.fileno(), 2)
    code = 1
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        signal.alarm(300)
        os.chdir(cwd)
        sys.exit(cli.main(argv))
    except SystemExit as exc:
        code = exc.code
        if code is None:
            code = 0
        elif not isinstance(code, int):
            print(code, file=sys.stderr)
            code = 1
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            pid = os.fork()
            if pid == 0:
                run_child(request["argv"], request["cwd"], request["limit"], out, err)
            _, status = os.waitpid(pid, 0)
            out.seek(0)
            err.seek(0)
            reply = {
                "returncode": os.waitstatus_to_exitcode(status),
                "stdout": out.read().decode(),
                "stderr": err.read().decode(),
            }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve()
