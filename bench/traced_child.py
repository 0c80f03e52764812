"""Run one pzcheck command line with its layers wrapped in timing spans.

    PYTHONPATH=src python3 bench/traced_child.py <pzcheck arguments>

Standard output is pzcheck's own.  After pzcheck returns, the last line
written to standard error is one JSON object holding the spans, the
cache counters of the wrapped lru_cache functions and the binding sites
that were patched.  The process starts cold, as a user's does.
"""

import json
import sys

from layers import Recorder


def main(argv: list[str]) -> int:
    import pzcheck.cli

    recorder = Recorder()
    patched = recorder.install()
    try:
        with recorder.span("cli.main"):
            status = pzcheck.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        status = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    print(json.dumps(recorder.record(patched)), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
