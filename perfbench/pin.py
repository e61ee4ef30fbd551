"""Pin the output digests that the benchmark checks every op against.

Runs one round of every workload's ops on every input variant and writes
the sha256 of each op's data output to ``pinned.json``.  The digests define
correct output, so run this only at a commit whose outputs are correct by
definition, never to make a failing op pass:

    python3 perfbench/pin.py --size tiny --size full
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys

import inputs
import run


def pin(size: str, workload: str, variant: int) -> dict[str, str]:
    workdir = run.WORK / "pin" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    generated = inputs.generate(size, workload, variant, workdir)
    digests = {}
    for op in run.workload_ops(size, workload, variant):
        code, _, _, data = run.run_subprocess_op(op, workdir)
        error = f"exit code {code}" if code else (run.recount_error(data, generated.expected) if op.recount else None)
        if error:
            raise SystemExit(f"pin: {size}/{workload}/{variant} {op.label}: {error}")
        digests[op.label] = hashlib.sha256(data).hexdigest()
    shutil.rmtree(workdir)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", action="append", choices=tuple(inputs.SIZES), required=True)
    args = parser.parse_args()
    pinned = json.loads(run.PINNED.read_text()) if run.PINNED.exists() else {}
    for size in args.size:
        for workload in inputs.WORKLOADS:
            for variant in range(run.VARIANTS):
                key = f"{size}/{workload}/{variant}"
                pinned[key] = pin(size, workload, variant)
                print(key, file=sys.stderr, flush=True)
    run.PINNED.write_text(json.dumps(dict(sorted(pinned.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
