"""Run every call of a workload once in a fresh process.

    python3 perfbench/child.py MANIFEST

MANIFEST is a JSON list of `hypermatch run` argument lists.  The process
imports `hypermatch`, makes each call through `cli.main` and prints one
JSON line with the exit codes and its peak resident set size, so
`peak_rss_mb` measures a process that ran only this workload.  Its
outputs go to separate files, which the parent compares byte for byte
with its own.
"""

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypermatch import cli  # noqa: E402


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        calls = json.load(fh)
    codes = [cli.main(argv) for argv in calls]
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"codes": codes, "maxrss_kb": maxrss_kb}))


if __name__ == "__main__":
    main()
