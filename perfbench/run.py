#!/usr/bin/env python3
"""Build and run the InFrame end-to-end benchmark.

    python3 perfbench/run.py --workload <paper_chain|net_fleet|link_bulk> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is a cargo package of its
own (perfbench/Cargo.toml) with path dependencies on the library crates;
it is built in release mode into $CARGO_TARGET_DIR (default
.bench_build), then run once. The binary prints a human-readable report
and, as its last line, one JSON object with the metrics; build output
goes to stderr. The exit code is the binary's, or 3 when the build fails
(for example when the library crates are missing).
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
PINNED = ("INFRAME_KERNEL", "INFRAME_SIMD", "INFRAME_WORKERS", "INFRAME_OBS")


def revision():
    """The git commit, or a digest of the sources when not in a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")) + sorted(ROOT.glob("crates/*/Cargo.toml")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main():
    pinned = [v for v in PINNED if v in os.environ]
    if pinned:
        print(f"run.py: refusing to run with {pinned} set; the benchmark measures the shipped defaults",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3
    binary = target / "release" / "perfbench"
    run = subprocess.run([str(binary), *sys.argv[1:], "--rev", revision()], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
