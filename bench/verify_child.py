"""Traced jamestree verification in a fresh process, started by `run.py --workload verify --trace 1`.

Usage: python3 bench/verify_child.py --seed N --out FILE --mode verify|workers

Imports `jamestree.cli` (timed as cli.import_s) and wraps every layer.  Mode
`verify` runs `cli.main(["verify", "--suite", "all", "--seed", N])` with
stdout captured; mode `workers` runs criterion 1 at 1 and then at 2 workers.
Writes one JSON document with the exit code, the captured stdout and the
spans to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("verify", "workers"), required=True)
    args = parser.parse_args()

    started = perf_counter()
    import jamestree.cli

    import_s = perf_counter() - started
    import tracing

    tracer = tracing.install(tracing.Tracer())
    captured = io.StringIO()
    if args.mode == "verify":
        tracer.op = f"verify-seed{args.seed}"
        with contextlib.redirect_stdout(captured):
            code = jamestree.cli.main(["verify", "--suite", "all", "--seed", str(args.seed)])
    else:
        from jamestree.config import DEFAULT_CONFIG
        from jamestree.verify import check_norm_oracle

        code = 0
        for workers in (1, 2):
            tracer.op = f"criterion1-w{workers}-seed{args.seed}"
            if not check_norm_oracle(DEFAULT_CONFIG.with_(seed=args.seed, workers=workers)).passed:
                code = 1
    tracer.uninstall()

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "exit_code": code,
                "stdout": captured.getvalue(),
                "import_s": import_s,
                "absent": tracer.absent,
                "spans": tracer.spans,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
