#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload clbg|openloop|mvcheck|all \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

The OCaml benchmark (perfbench/perfbench.ml) is built in release mode
under .bench_build/ and then replaces this process; the last line of its
stdout is the JSON result.  `--workload all` runs the three workloads one
after another, each in its own process.  A failed build exits 2 without a
result.  See perfbench/README.md.
"""

import os
import resource
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ["clbg", "openloop", "mvcheck"]


def build(root):
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: `dune` not found on PATH")
    cmd = [dune, "build", "--cache=disabled", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    res = subprocess.run(cmd, cwd=root, stdout=sys.stderr)
    if res.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)
    return os.path.join(root, BUILD_DIR, "default", "perfbench", "perfbench.exe")


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    exe = build(root)
    # The runtime_events ring file (--trace 1) lives under the build dir.
    # It holds one ring of 2^e words per possible domain (128), so it is
    # 2^(e+10) bytes, and the runtime aborts when the file-size limit is
    # lower.  e = 18 (256 MiB) holds about four times the GC events
    # between two reads of the ring (gc_pauses.ml); under a lower limit e
    # shrinks to half the limit, and ocaml_gc.lost_events shows any loss.
    e = 18
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    if limit != resource.RLIM_INFINITY:
        e = max(1, min(e, (limit // 2).bit_length() - 11))
    param = ",".join(p for p in [os.environ.get("OCAMLRUNPARAM", ""), "e=%d" % e] if p)
    env = dict(os.environ, OCAMLRUNPARAM=param,
               OCAML_RUNTIME_EVENTS_DIR=os.path.join(root, BUILD_DIR))
    sys.stdout.flush()
    i = argv.index("--workload") + 1 if "--workload" in argv else -1
    if 0 < i < len(argv) and argv[i] == "all":
        codes = [subprocess.run([exe] + argv[:i] + [w] + argv[i + 1:], cwd=root, env=env).returncode
                 for w in WORKLOADS]
        sys.exit(max(codes))
    os.chdir(root)
    os.execve(exe, [exe] + argv, env)


if __name__ == "__main__":
    main(sys.argv[1:])
