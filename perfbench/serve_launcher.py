"""Start ``repro serve`` for the benchmark, optionally traced.

Usage: ``serve_launcher.py [--trace-dir DIR] -- <repro serve arguments>``.

Prints one ``perfbench-stamp {json}`` line (environment and evaluation
backend of the daemon), then hands over to the program's own CLI entry
point, so the daemon is exactly ``repro serve``.  With ``--trace-dir`` the
span tracer is installed first and dumped when the daemon exits.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    argv = sys.argv[1:]
    trace_dir = ""
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if trace_dir:
        import tracer as tracing

        tracer = tracing.install(trace_dir)

    from repro import cli
    from repro.parallel.backends import create_backend, resolve_jobs
    from repro.uarch import kernel_backends
    from simpass import host_stamp

    jobs = resolve_jobs(int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else None)
    backend = create_backend(jobs)
    stamp = {
        **host_stamp(),
        "jobs": jobs,
        "kernel_backend": getattr(kernel_backends.resolve(None), "name", "?"),
        "evaluation_backend": type(backend).__name__,
    }
    backend.close()
    print("perfbench-stamp " + json.dumps(stamp), flush=True)
    try:
        return cli.main(["serve", *argv])
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
