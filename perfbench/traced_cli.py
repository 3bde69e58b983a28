"""``python -m folsing.cli`` with the outside-in tracer installed.

Usage: python3 perfbench/traced_cli.py FD ARGS...

Runs the folsing command line ARGS exactly as ``python -m folsing.cli``
would, then writes the per-layer metrics as one JSON object to the inherited
file descriptor FD, so stdout and stderr stay the program's own.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


def main():
    fd = int(sys.argv[1])
    argv = sys.argv[2:]
    import folsing.cli

    tracer = tracing.Tracer()
    tracer.install()
    code = 0
    try:
        tracer.run_job(0, lambda: folsing.cli.main.main(
            argv, prog_name="python -m folsing.cli", standalone_mode=True))
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with os.fdopen(fd, "w") as pipe:
            json.dump(tracer.metrics(), pipe)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
