"""Run one quantrep CLI invocation the way the installed console script does.

    python3 perfbench/child.py <checkout root> -- <subcommand> [args...]

With PERFBENCH_TRACE set to a file path, the layer wrappers of
``tracer.py`` are installed before ``quantrep.cli.main`` runs and the spans
are written to that file; otherwise nothing but the CLI is imported.
"""

import os
import sys
import time

START_NS = time.monotonic_ns()


def main():
    root, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        sys.exit("usage: child.py <root> -- <subcommand> [args...]")
    sys.path.insert(0, os.path.join(root, "src"))
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        from quantrep.cli import main as cli_main
        return cli_main(argv)
    import tracer  # found next to this script, sys.path[0]
    return tracer.run_traced(START_NS, argv, trace_path)


if __name__ == "__main__":
    sys.exit(main())
