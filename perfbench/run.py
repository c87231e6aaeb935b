#!/usr/bin/env python3
"""Host-time benchmark of the emulator (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload internet_bgp --seed 1 --seconds 30 --trace 0

Builds the library and the benchmark driver from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
driver with the given arguments and the recorded fingerprints. The last line
of standard output is the JSON result. Other driver flags (--scale,
--quiet-s, --record, --fingerprints) pass through unchanged.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
FINGERPRINTS = HERE / "fingerprints.json"


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build() -> Path:
    """Configure (once) and build the driver; returns its path."""
    if not (SOURCE / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: library sources not found at {SOURCE}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench_driver"


def main() -> int:
    args = sys.argv[1:]
    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    if "--fingerprints" not in args:
        args += ["--fingerprints", str(FINGERPRINTS)]
    sys.stdout.flush()
    return subprocess.run([str(driver), *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
