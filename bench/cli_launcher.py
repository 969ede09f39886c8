"""Run ``swnkms.cli.main`` under the benchmark's span tracer, as one op.

Usage: python3 cli_launcher.py OUT.json ARGV...

Installs the tracing wrappers after ``import swnkms.cli`` and before
``main(ARGV)``, writes the per-name totals and the duration of the main()
span and the reordering cache's (hits, misses) to OUT.json and the spans to
OUT.npz, and exits with main's exit code.
Standard output is the command's own, so it can be compared byte for byte
with an untraced ``python -m swnkms ARGV...``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import swnkms.cli  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        code = swnkms.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --help and bad flags
        code = exc.code
    finally:
        tracer.end_op()
        tracer.uninstall()
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({
                "totals": tracer.totals(),
                "main_s": sum(tracer.span_seconds("cli.main")),
                "reorder_cache": spans.reorder_cache(),
            }, fh)
        tracer.save(out[: -len(".json")] + ".npz")
    return code


if __name__ == "__main__":
    sys.exit(main())
