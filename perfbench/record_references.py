"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_references.py

For every workload and every input set of the pool it runs one pass and
stores, per command, the sha256 of the output, its exact numbers, its
estimates and its input digests in perfbench/references.json.  A command
that fails stops the recording.
"""

import json
import os
import sys

from run import BLAS_THREADS, WORK_DIR


def main() -> int:
    # BLAS threads are pinned before numpy loads, as run.py does for its
    # children, so the modules that import numpy are imported only here
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, os.path.abspath("src"))
    import checks
    import inputs
    import workloads
    from worker import REFERENCES, prepare, run_pass
    from capnet import cli

    refs = {}
    for workload in workloads.WORKLOADS:
        refs[workload] = {}
        for entry in range(inputs.POOL):
            pas = run_pass(cli, prepare(entry, WORK_DIR, workload), None, entry)
            outputs = {}
            for res in pas["commands"]:
                text = res["output"].decode()
                if res["rc"] != 0 or any(line.startswith("FAIL")
                                         for line in text.splitlines()):
                    print(f"{workload} input {entry} {res['label']} failed:\n"
                          f"{text}{res['stderr']}", file=sys.stderr)
                    return 1
                outputs[res["label"]] = {"sha256": checks.digest(res["output"]),
                                         **checks.parse(text)}
            refs[workload][str(entry)] = outputs
            print(f"{workload} input {entry}: {pas['wall_s']:.2f} s", file=sys.stderr)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
