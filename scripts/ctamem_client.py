#!/usr/bin/env python3
"""Pipe client for the ctamemd campaign service.

Spawns a ctamemd daemon (``--daemon``) and speaks the framed protocol
over its stdin/stdout: every frame is a little-endian u32 byte length
followed by one JSON object (see src/svc/wire.hh).

Commands:

  ping                  liveness round trip
  stats                 print the service counters as JSON --
                        includes the shared row-profile cache
                        (``profileCache``: hits, misses, evictions,
                        ``raceLosses`` -- builds discarded because a
                        concurrent build of the same row landed
                        first -- entries, capacity) and the pattern
                        fuzzer's progress counters (``fuzz``: runs,
                        patterns evaluated, generations, bypasses
                        found)
  submit MANIFEST...    submit each manifest, stream per-cell
                        progress to stderr, print each report to
                        stdout
  smoke MANIFEST        submit MANIFEST twice and assert the second
                        pass is served (>= 90%) from the result cache
                        with a bit-identical cell table -- the ctest
                        `svc-smoke` entry

Examples:
  scripts/ctamem_client.py --daemon build/src/svc/ctamemd \\
      submit scenarios/paper-default.json
  scripts/ctamem_client.py --daemon build/src/svc/ctamemd \\
      --cache-dir /tmp/ctamem-cache smoke scenarios/paper-default.json

Exit status: 0 on success, 1 on protocol errors, rejected
submissions, or a failed smoke assertion.
"""

import argparse
import json
import struct
import subprocess
import sys


class Daemon:
    """One ctamemd process plus framed send/recv over its pipes."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def send(self, obj):
        payload = json.dumps(obj).encode()
        self.proc.stdin.write(struct.pack("<I", len(payload)))
        self.proc.stdin.write(payload)
        self.proc.stdin.flush()

    def recv(self):
        prefix = self.proc.stdout.read(4)
        if len(prefix) < 4:
            raise EOFError("daemon closed the stream")
        (length,) = struct.unpack("<I", prefix)
        payload = self.proc.stdout.read(length)
        if len(payload) < length:
            raise EOFError("truncated frame from daemon")
        return json.loads(payload)

    def close(self):
        try:
            self.send({"type": "shutdown"})
            while True:
                if self.recv().get("type") == "bye":
                    break
        except (EOFError, BrokenPipeError):
            pass
        self.proc.stdin.close()
        return self.proc.wait()


def submit_one(daemon, path, job_id):
    """Submit one manifest; returns the final `done` frame."""
    with open(path) as fh:
        manifest = json.load(fh)
    daemon.send({"type": "submit", "id": job_id, "manifest": manifest})

    accepted = daemon.recv()
    if accepted.get("type") == "rejected":
        sys.exit(f"ctamem_client: {path} rejected: "
                 f"{accepted.get('reason')} "
                 f"(pending {accepted.get('pending')}, "
                 f"capacity {accepted.get('capacity')})")
    if accepted.get("type") == "error":
        sys.exit(f"ctamem_client: {path}: {accepted.get('message')}")
    if accepted.get("type") != "accepted":
        sys.exit(f"ctamem_client: unexpected frame {accepted}")

    cells = accepted["cells"]
    done_count = 0
    while True:
        frame = daemon.recv()
        kind = frame.get("type")
        if kind == "cell":
            done_count += 1
            tag = "cached" if frame.get("cached") else "ran"
            print(f"  [{done_count}/{cells}] cell "
                  f"{frame['index']} {tag}", file=sys.stderr)
        elif kind == "done":
            return frame
        elif kind == "error":
            sys.exit(f"ctamem_client: {frame.get('message')}")
        else:
            sys.exit(f"ctamem_client: unexpected frame {frame}")


def cmd_ping(daemon, _args):
    daemon.send({"type": "ping"})
    frame = daemon.recv()
    if frame.get("type") != "pong":
        sys.exit(f"ctamem_client: expected pong, got {frame}")
    print("pong")
    return 0


def cmd_stats(daemon, _args):
    daemon.send({"type": "stats"})
    print(json.dumps(daemon.recv(), indent=2))
    return 0


def cmd_submit(daemon, args):
    for i, path in enumerate(args.manifests, start=1):
        done = submit_one(daemon, path, i)
        report = done["report"]
        print(json.dumps(report))
        print(f"{path}: {len(report['cells'])} cells, "
              f"{done['cachedCells']} cached, "
              f"{report['wallSeconds']:.3f}s wall", file=sys.stderr)
    return 0


def cmd_smoke(daemon, args):
    path = args.manifests[0]
    cold = submit_one(daemon, path, 1)
    warm = submit_one(daemon, path, 2)

    cells = len(cold["report"]["cells"])
    cached = warm["cachedCells"]
    hit_rate = cached / cells if cells else 0.0
    identical = (json.dumps(cold["report"]["cells"]) ==
                 json.dumps(warm["report"]["cells"]))

    print(f"smoke: {cells} cells, resubmission served {cached} "
          f"from cache ({hit_rate:.0%}), cell tables "
          f"{'identical' if identical else 'DIFFER'}",
          file=sys.stderr)
    if hit_rate < 0.90:
        print("smoke: FAIL -- resubmission cache hit rate below 90%",
              file=sys.stderr)
        return 1
    if not identical:
        print("smoke: FAIL -- replayed cell table is not "
              "bit-identical", file=sys.stderr)
        return 1
    print("smoke: ok", file=sys.stderr)
    return 0


COMMANDS = {
    "ping": cmd_ping,
    "stats": cmd_stats,
    "submit": cmd_submit,
    "smoke": cmd_smoke,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--daemon", required=True,
                    help="path to the ctamemd binary")
    ap.add_argument("--workers", type=int,
                    help="daemon worker threads")
    ap.add_argument("--queue", type=int,
                    help="daemon in-flight cell bound")
    ap.add_argument("--cache-dir",
                    help="daemon disk cache directory")
    ap.add_argument("--no-disk-cache", action="store_true",
                    help="keep daemon results in memory only")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("manifests", nargs="*",
                    help="scenario manifest path(s)")
    args = ap.parse_args()

    if args.command in ("submit", "smoke") and not args.manifests:
        ap.error(f"{args.command} needs at least one manifest")

    argv = [args.daemon]
    if args.workers is not None:
        argv += ["--workers", str(args.workers)]
    if args.queue is not None:
        argv += ["--queue", str(args.queue)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if args.no_disk_cache:
        argv += ["--no-disk-cache"]

    daemon = Daemon(argv)
    try:
        status = COMMANDS[args.command](daemon, args)
    finally:
        exit_code = daemon.close()
    if status == 0 and exit_code != 0:
        sys.exit(f"ctamem_client: daemon exited with {exit_code}")
    return status


if __name__ == "__main__":
    sys.exit(main())
