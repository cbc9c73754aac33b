#!/usr/bin/env python3
"""Benchmark entry point: M/S/F training time of GMM and NN on one join shape.

    python3 perfbench/run.py --workload wide-r --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark from source (see build.py), then runs
one JVM on Spark local[min(4, nproc)] that sets up the workload's base
tables from --seed, trains every algorithm in a closed loop for --seconds,
checks that M, S and F agree, and prints a RUN_RECORD line followed, as the
last line, by the result object. --trace 1 reports the per-layer metrics
instead of the end-to-end ones; --smoke shrinks the workload to a few
thousand rows (used by test_perfbench.py).
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JVM_TIMEOUT_S = 170
# Fixed size, so the collector does not resize the heap while rounds are timed.
HEAP = "3g"

# Spark on JDK 17 needs these opens (the same list as the repo's build.sbt).
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        build.fail("program sources not found under src/main/scala; run from a full checkout")
    classes, digest = build.build()

    work = build.OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", *OPENS,
           f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           "-cp", f"{classes}{os.pathsep}{build.spark_classpath()}",
           "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work), "--trace-dir", str(build.OUT / "trace"),
           "--git-sha", git_sha(), "--source-sha256", digest]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=JVM_TIMEOUT_S,
                              env=dict(os.environ, SPARK_LOCAL_DIRS=str(work / "spark-local")))
    except subprocess.TimeoutExpired:
        build.fail(f"benchmark JVM exceeded {JVM_TIMEOUT_S} s and was stopped")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        build.fail(f"benchmark JVM exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
