#!/usr/bin/env python3
"""Run the HEP pipeline benchmark on one workload.

    python3 perfbench/run.py --workload <name> [--seed <n>] --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run builds the program and the
benchmark from source with sbt (perfbench/build.sbt depends on the repo's own
build); later runs reuse the build while the sources are unchanged. The
measurement itself is one JVM (repro.perfbench.PipelineBench), whose last
line of standard output, a JSON object, is printed last here too. On any
failure this script exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, "target", "run")
CLASSPATH_FILE = os.path.join(BENCH_DIR, "target", "runtime-classpath.txt")
STAMP_FILE = os.path.join(BENCH_DIR, "target", "build-stamp.txt")

# The whole run must end within this many seconds once the build is done.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700

# ParallelGC: under G1 the median time of warm Hep.partition calls switched
# between two modes ~30 % apart from run to run; under ParallelGC it did not.
# Spark 4 on JDK 17 needs the modules opened (as in the repo's build.sbt).
JVM_OPTS = [
    "-Xmx3g",
    "-XX:+UseParallelGC",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dspark.driver.host=127.0.0.1",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    """Every file the build reads, so a change to any of them forces a rebuild."""
    tops = [os.path.join(ROOT, d) for d in ("src/main", "jobs", "project")]
    tops += [os.path.join(BENCH_DIR, d) for d in ("src", "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(BENCH_DIR, "build.sbt")]
    for top in tops:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "project"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    return files


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, cwd, limit_s, **kw):
    """Run cmd in its own process group; kill the whole group past limit_s."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {limit_s:.0f} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    """Compile with sbt unless the sources are unchanged since the last build."""
    stamp = source_hash()
    if os.path.isfile(STAMP_FILE) and os.path.isfile(CLASSPATH_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == stamp:
                return
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
        BENCH_DIR, BUILD_LIMIT_S, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        stdin=subprocess.DEVNULL, text=True)
    if code != 0 or not os.path.isfile(CLASSPATH_FILE):
        sys.stderr.write(out or "")
        fail(f"build failed (sbt exit code {code})")
    with open(STAMP_FILE, "w") as fh:
        fh.write(stamp + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, help="generator seed (default: the proxy's own)")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=("0", "1"), required=True)
    args = p.parse_args()
    # Turn SIGTERM into SystemExit, so run_bounded still kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of a full checkout of the repo")

    build()
    with open(CLASSPATH_FILE) as fh:
        classpath = fh.read().strip()

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java, *JVM_OPTS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH_DIR, 'log4j2.properties')}",
           "-cp", classpath, "repro.perfbench.PipelineBench",
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", WORK_DIR]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    started = time.monotonic()
    code, out = run_bounded(cmd, ROOT, RUN_LIMIT_S, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(out)
        fail("benchmark JVM printed no result line")
    for line in lines[:-1]:
        print(line)
    print(f"run took {time.monotonic() - started:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
