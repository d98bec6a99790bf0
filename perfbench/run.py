#!/usr/bin/env python3
"""Build the tfcsim benchmark from source and run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload incast --seed 1 --seconds 20 --trace 0

Every flag is passed through to the Go benchmark (see perfbench/README.md).
The Go toolchain's caches, temp files and the built binary all live under
.bench_build/ in the checkout, so nothing is read or written outside it.
The benchmark module imports the simulator from the enclosing repository
(go.mod: replace tfcsim => ../); without it the build fails and this
script exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")


def tree_digest():
    """Hash the simulator's Go sources: the code version of a checkout that
    is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod above perfbench/: run from a tfcsim checkout",
              file=sys.stderr)
        return 2
    dirs = {name: os.path.join(BUILD, name)
            for name in ("gocache", "gopath", "home", "tmp", "bin", "out")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": dirs["gocache"],
        "GOPATH": dirs["gopath"],
        "GOMODCACHE": os.path.join(dirs["gopath"], "pkg", "mod"),
        "HOME": dirs["home"],
        "XDG_CONFIG_HOME": os.path.join(dirs["home"], ".config"),
        "XDG_CACHE_HOME": os.path.join(dirs["home"], ".cache"),
        "GOTMPDIR": dirs["tmp"],
        "TMPDIR": dirs["tmp"],
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly -buildvcs=false",
    })
    binary = os.path.join(dirs["bin"], "tfcbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR,
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["TFCBENCH_COMMIT"] = commit()
    env["TFCBENCH_TREE"] = tree_digest()
    run = subprocess.run([binary, *sys.argv[1:], "--out-dir", dirs["out"]],
                         cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
