"""Record reference.json: key output numbers of one op per workload.

usage: python3 perfbench/make_reference.py   (from the checkout root)

Runs each workload once on the default seed and stores what
checks.extract_reference pins.  Re-record only when a change is meant to
move the numbers by more than checks.REFERENCE_REL, and say so.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402


def main() -> int:
    work = os.path.join(os.getcwd(), ".perfbench_work", "reference")
    shutil.rmtree(work, ignore_errors=True)
    env = run.child_env(os.getcwd())
    reference = {}
    try:
        for name in sorted(WORKLOADS):
            gen_dir = os.path.join(work, name, "inputs")
            op_dir = os.path.join(work, name, "op")
            facts = generate(name, DEFAULT_SEED, gen_dir)
            op = run.run_op(name, gen_dir, op_dir, env, traced=False)
            problems = checks.check_op(name, op_dir, op["codes"], facts)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            reference[name] = checks.extract_reference(name, op_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
