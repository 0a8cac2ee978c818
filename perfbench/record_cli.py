"""Record the stdout digests that cli-batch's fixed-argv commands must match.

    python3 perfbench/record_cli.py

Run once against the commit whose output is the reference; it rewrites
perfbench/expected_cli.json.  Every command must exit 0.
"""

import hashlib
import json
import sys

from workloads import EXPECTED_CLI, Launcher, fixed_commands


def main() -> int:
    launcher = Launcher()
    digests = {}
    for argv in fixed_commands() + fixed_commands(tiny=True):
        res = launcher.run(argv)
        if res.code != 0:
            print(f"{' '.join(argv)}: exit {res.code}\n{res.stderr.decode()}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = hashlib.sha256(res.stdout).hexdigest()
    with open(EXPECTED_CLI, "w") as fh:
        json.dump({"stdout_sha256": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
