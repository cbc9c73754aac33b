"""Build file of the benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (perfbench/src) using the Scala compiler that ships in the
Spark distribution, so the build needs neither sbt nor a dependency cache.
Classes go to .bench_build/perfbench/classes-<hash of the sources>; a build
whose sources are unchanged is reused.

    python3 perfbench/build.py        # build and print the classes directory
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("no Spark distribution: set SPARK_HOME or put spark-submit on PATH")
    return Path(home)


def spark_classpath():
    return str(spark_home() / "jars" / "*")


def java():
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").exists():
        return str(Path(home) / "bin" / "java")
    return shutil.which("java") or fail("no java on PATH")


def sources():
    program = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not program:
        fail("program sources not found under src/main/scala")
    return program + sorted((ROOT / "perfbench" / "src").rglob("*.scala"))


def build():
    """Return (classes directory, sha256 of the sources), compiling if needed."""
    srcs = sources()
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    digest = h.hexdigest()
    classes = OUT / f"classes-{digest[:16]}"
    if (classes / ".complete").exists():
        return classes, digest

    tmp = OUT / f"build-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "classes").mkdir(parents=True)
    argfile = tmp / "sources.txt"
    argfile.write_text("\n".join(f'"{p}"' for p in srcs) + "\n")
    cp = spark_classpath()
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    res = subprocess.run(
        [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", cp, "scala.tools.nsc.Main",
         "-d", str(tmp / "classes"), "-classpath", cp, "-nowarn", f"@{argfile}"],
        stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("compilation failed")
    (tmp / "classes" / ".complete").touch()
    try:
        (tmp / "classes").rename(classes)
    except OSError:
        if not (classes / ".complete").exists():
            raise
    shutil.rmtree(tmp, ignore_errors=True)
    return classes, digest


if __name__ == "__main__":
    print(build()[0])
