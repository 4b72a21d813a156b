"""Traced stand-in for `python -m hangerline.cli`.

Usage: python cli_runner.py SPAN_FILE CLI_ARGS...

Times the import of hangerline.cli, wraps the package's public functions
with spans, runs hangerline.cli.main(CLI_ARGS) inside a `cli.main` span and
writes the spans and counters to SPAN_FILE as JSON, also when main raises.
Exit code and output are main's, as under `python -m`.
"""
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    span_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import hangerline.cli

    import_s = time.perf_counter() - start

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    index = tracer.begin("cli.main")
    try:
        code = hangerline.cli.main(argv)
    finally:
        tracer.end(index)
        counts = {k: float(v) for k, v in tracer.counts.items()}
        Path(span_file).write_text(
            json.dumps({"import_s": import_s, "spans": tracer.spans, "counts": counts})
        )
    sys.exit(code)
