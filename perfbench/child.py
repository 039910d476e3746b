"""Run one `indefsum` CLI call with the benchmark's spans installed.

Usage: python3 perfbench/child.py <indefsum CLI arguments>

The CLI's output goes to stdout unchanged and its exit code is returned.
When the call ends, one line `PERFBENCH_TRACE {json}` on stderr carries
the aggregated spans and counters, including the import time of the CLI.
"""

import json
import sys
import time
from pathlib import Path

from spans import TRACE_MARK, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import indefsum.cli as cli
    tracer = Tracer()
    tracer.import_s.append(time.perf_counter() - t0)
    tracer.install()
    try:
        return cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps(tracer.to_json()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
