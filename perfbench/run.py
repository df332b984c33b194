#!/usr/bin/env python3
"""Affidavit benchmark runner.

Builds the repository and the benchmark from source with sbt (once per
source tree; the compiled classes are kept under .bench_build/builds/),
then runs one workload in a fresh JVM and passes its output through. The
last line of the output is the benchmark's JSON result.

    python3 perfbench/run.py --workload hid --seed 7 --seconds 18 --trace 0

Workloads: hid, hs-overlap (see perfbench/README.md).
Run it from the root of a checkout.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")

# Inputs of the build: a change to any of them triggers a rebuild.
SOURCES = ["build.sbt", "project/build.properties", "src/main",
           "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src/main"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_hash():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        if not os.path.exists(path):
            fail(f"missing {rel}: run from the root of a full checkout")
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group. Kills the whole group on timeout
    and when this script is terminated, and waits for it to end."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    handlers = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(cmd[:3])} ...", 1)
    finally:
        for s, h in handlers.items():
            signal.signal(s, h)
    return proc.returncode, out


def launch_spec(src_hash):
    """The classpath and JVM options for the code with this source hash.

    sbt compiles into shared target directories, so after a build the
    classes this hash produced are copied to .bench_build/builds/<hash>/ and
    the classpath points at the copies. A later run of the same hash loads
    exactly those classes, even if another source tree was compiled since.
    """
    build = os.path.join(BUILD_DIR, "builds", src_hash)
    spec = os.path.join(build, "launch.txt")
    if not os.path.exists(spec):
        env = dict(os.environ)
        env.setdefault("COURSIER_MODE", "offline")
        code, out = run_group(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             f"-Djava.io.tmpdir={tmp_dir()}", "launchSpec"],
            BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        written = os.path.join(BUILD_DIR, "perfbench", "launch.txt")
        if code != 0 or not os.path.exists(written):
            sys.stderr.write(out.decode(errors="replace")[-4000:])
            fail(f"build failed (sbt exit {code})", 1)
        with open(written) as fh:
            cp, *opts = fh.read().splitlines()
        staging = build + ".tmp"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        entries = []
        root = os.path.realpath(ROOT)
        for i, entry in enumerate(cp.split(os.pathsep)):
            if not os.path.exists(entry):
                continue
            if os.path.commonpath([os.path.realpath(entry), root]) == root:
                copy = os.path.join(staging, f"cp{i}")
                if os.path.isdir(entry):
                    shutil.copytree(entry, copy)
                else:
                    shutil.copy2(entry, copy)
                entry = os.path.join(build, f"cp{i}")
            entries.append(entry)
        with open(os.path.join(staging, "launch.txt"), "w") as fh:
            fh.write("\n".join([os.pathsep.join(entries), *opts]) + "\n")
        shutil.rmtree(build, ignore_errors=True)
        os.rename(staging, build)
    with open(spec) as fh:
        cp, *opts = fh.read().splitlines()
    return cp, opts


def tmp_dir():
    """Scratch space for the JVMs (Spark block manager, native libraries)."""
    path = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    src_hash = source_hash()
    cp, java_opts = launch_spec(src_hash)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    # Serial GC: collections stop the measured thread, so allocation shows
    # in the timings, and pass times vary less than under G1 on a few cores.
    cmd = [java, "-Xms1g", "-Xmx3g", "-XX:+UseSerialGC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp_dir()}", *java_opts,
           f"-Dperfbench.buildDir={os.path.join(BUILD_DIR, 'perfbench')}",
           f"-Dperfbench.sourceHash={src_hash}",
           f"-Dperfbench.gitCommit={git_commit()}",
           f"-Dperfbench.launchedAtMs={time.time() * 1000.0:.3f}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp_dir())
    code, _ = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    sys.exit(code)


if __name__ == "__main__":
    main()
