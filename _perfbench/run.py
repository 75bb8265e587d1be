#!/usr/bin/env python3
"""Build and run the perfbench driver from the root of a checkout.

    python3 _perfbench/run.py --workload fuzz-sweep --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (deltartos/perfbench, with a
replace directive onto the repository) in a directory whose name starts
with an underscore, so neither `go ... ./...` nor deltalint's module walk
picks it up as part of the repository.

Every file the build and the run write (Go build cache, module cache,
temporary directories, the frozen lint tree, span dumps) stays under
.bench_build/perfbench in the checkout.  The last line of standard output
is the driver's JSON result; the exit status is the driver's, or 1 when the
build fails (as it does when the repository's Go packages are absent).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
