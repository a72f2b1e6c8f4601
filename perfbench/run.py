#!/usr/bin/env python3
"""Build the svtsim benchmark from source and run it.

Run from the root of an svtsim checkout:

    python3 perfbench/run.py --workload nested-exits --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, and the traced run's span and profile
files all go under .bench_build/ in the checkout (or under
$CARGO_TARGET_DIR when it is set), so nothing is written outside it.
Arguments are passed through to the benchmark binary; its exit status
is returned. A failed build exits with status 2 and prints no result.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        # The go command keeps its config and telemetry under the user
        # config directory; keep those inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOPROXY": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    ran = subprocess.run([binary, "--out", build] + sys.argv[1:], cwd=root)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
