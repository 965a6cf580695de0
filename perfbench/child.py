"""One benchmark sample: a fresh interpreter that imports chowops.cli and,
unless --import-only, makes one `cli.main(argv)` call.

Run by run.py as `python3 perfbench/child.py MODE ARG...` with MODE one of
`import`, `run` or `trace`, and PYTHONPATH pointing at the checkout's src/.  The CLI's stdout
is captured; the last line this process prints is one JSON object with
the timings, the peak RSS, the exit code and the captured output.

setup_s needs the spawn time, which only the parent knows: the child
reports `imported_at` on the system-wide monotonic clock and the parent
subtracts its own `time.monotonic()` taken just before the spawn.
"""

import sys
import time

import chowops.cli

imported_at = time.monotonic()

import contextlib  # noqa: E402  (after the timed import on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

import chowops  # noqa: E402


def main(mode, argv):
    result = {"imported_at": imported_at,
              "kernel_backend": chowops.kernel_backend,
              "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if mode != "import":
        main_fn = chowops.cli.main
        tracer = None
        if mode == "trace":
            from layers import Tracer
            tracer = Tracer()
            tracer.install()
            main_fn = tracer.wrap(main_fn, "cli")
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                rc = main_fn(argv)
            except SystemExit as exc:  # argparse rejects bad arguments
                rc = exc.code
        result["run_s"] = time.perf_counter() - t0
        result["rc"] = rc
        result["stdout"] = out.getvalue()
        if tracer is not None:
            result["layers"] = tracer.metrics()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
