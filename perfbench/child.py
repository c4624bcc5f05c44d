"""One benchmark child: a fresh interpreter that runs ``bconstell.cli.main`` once.

    python3 child.py RESULT_FILE {import|timed|traced} [ARGV...]

``import`` stops after importing ``bconstell.cli``; it measures set-up only.
``timed`` runs ``main(ARGV)``; ``traced`` does the same under the span
tracer of ``spans.py``.  The child writes the monotonic time at which the
import finished, the start and end of ``main`` and, when traced, the span
report to RESULT_FILE as JSON, and exits with ``main``'s exit code.  Stdout
is ``main``'s output alone.  ``bconstell`` must be importable (the parent
puts the checkout's ``src`` on ``PYTHONPATH``).
"""

import time

import bconstell.cli

READY = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run(result_file, mode, argv):
    out = {"ready": READY}
    code = 0
    if mode != "import":
        tracer = None
        if mode == "traced":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        start = time.monotonic()
        try:
            code = bconstell.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            out["raised"] = traceback.format_exc()
            sys.stderr.write(out["raised"])
            code = 1
        out["start"] = start
        out["end"] = time.monotonic()
        sys.stdout.flush()
        if tracer is not None:
            out["trace"] = tracer.report()
    out["code"] = code
    with open(result_file, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
