"""Run one noisygames CLI command with the span recorder installed.

    python bench/cli_shim.py TRACE_OUT -- ARGV...

Times `import noisygames.cli` and counts the modules it loads, installs the
wrappers, calls `noisygames.cli.main(ARGV)`, writes the spans to TRACE_OUT
and exits with main's return code.  Needs `src` on PYTHONPATH.
"""

import json
import sys
import time


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print("usage: cli_shim.py TRACE_OUT -- ARGV...", file=sys.stderr)
        return 2
    before = len(sys.modules)
    start = time.perf_counter()
    import noisygames.cli
    end = time.perf_counter()
    modules = len(sys.modules) - before

    import tracing

    tracer = tracing.Tracer()
    tracer.add("cli.import", start, end)
    tracer.install()
    tracer.active = True
    try:
        code = noisygames.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump({**tracer.dump(), "import_modules": modules}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
