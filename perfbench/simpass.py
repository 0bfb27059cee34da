"""One measured pass in a fresh interpreter (started by ``run.py``).

Modes:

``setup``    import ``repro`` and construct a ``Session``; report the time.
``measure``  the same set-up, then one timed ``Session.run`` of the spec.
``oracle``   run every spec with the interpreted kernel backend and report
             the output digest of each.  The caller sets ``REPRO_KERNEL=0``
             too, so no compiled path can take part.

The last line of standard output is one JSON object.  ``--trace-dir`` turns
on the span tracer (see ``tracer.py``) for a traced ``measure`` pass.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def output_digest(result) -> str:
    """sha256 of the canonical JSON of a result's simulated outputs.

    Only ``rows``, ``knobs`` and ``ser`` take part: ``timing``,
    ``provenance`` and the GA counters legitimately differ between runs.
    """
    payload = {"rows": result.rows, "knobs": result.knobs, "ser": result.ser}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def host_stamp() -> dict:
    """Processor count and interpreter/numpy versions of this process."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version}


def environment_stamp(session, spec) -> dict:
    from repro.uarch import kernel_backends

    resolved = session.resolve(spec)
    backend = kernel_backends.resolve(resolved.kernel_backend or None)
    return {
        **host_stamp(),
        "jobs": resolved.jobs,
        "kernel_backend": getattr(backend, "name", type(backend).__name__),
        "evaluation_backend": type(session.context_for(spec).backend).__name__,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; pool workers are reaped children.
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "oracle"))
    parser.add_argument("--specs", default="[]", help="JSON list of spec documents")
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args()

    tracer = None
    if args.trace_dir:
        import tracer as tracing

        tracer = tracing.install(args.trace_dir)
    from repro.api.session import Session
    from repro.api.spec import RunSpec

    session = Session()
    setup_s = time.perf_counter() - START
    out: dict = {"setup_s": setup_s}
    specs = [RunSpec.from_json_dict(doc) for doc in json.loads(args.specs)]
    try:
        if args.mode == "measure":
            (spec,) = specs
            start = time.perf_counter()
            result = session.run(spec)
            out["wall_s"] = time.perf_counter() - start
            out["stamp"] = environment_stamp(session, spec)
            out["digest"] = output_digest(result)
            out["rows"] = [{key: row.get(key) for key in ("program", "cycles", "instructions")}
                           for row in result.rows]
            out["ga"] = result.ga
            out["resilience"] = result.provenance.get("resilience", {})
        elif args.mode == "oracle":
            out["digests"] = [
                output_digest(session.run(spec.replace(kernel_backend="interpreted")))
                for spec in specs
            ]
    finally:
        session.close()
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.dump()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
