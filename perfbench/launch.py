"""Run one rstokes CLI invocation as a benchmark child process.

usage: python launch.py STAMP_FILE TRACE_FILE|- CLI_ARGS...

Imports rstokes.cli, writes time.monotonic() right after the import to
STAMP_FILE (the parent stamps the same clock at spawn, so the difference is
the set-up time), then calls rstokes.cli.main(CLI_ARGS).  With a TRACE_FILE
the layer functions are wrapped first and the spans are written there when
main returns.
"""

import sys
import time


def main() -> int:
    stamp_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import rstokes.cli

    imported = time.monotonic()
    with open(stamp_path, "w") as handle:
        handle.write(repr(imported))
    if trace_path == "-":
        return rstokes.cli.main(argv)

    import tracer

    recorder = tracer.Recorder()
    restore = tracer.install(recorder)
    try:
        return rstokes.cli.main(argv)
    finally:
        restore()
        recorder.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
