#!/usr/bin/env python3
"""One-process-per-node smoke test for examples/ritas_node.

Starts four ritas_node processes on free loopback ports, each with
--burst 20, and reads their stdout until every process has printed 80
delivery lines ("seq | pN | payload"), against a deadline. The four
outputs must be identical (the same total order everywhere), with each
origin's 20 burst payloads present exactly once. Then it writes /quit to
each process and requires exit code 0 from all four. On any failure every
process is killed, so none is left running.

Run: python3 tools/ritas_node_smoke.py path/to/ritas_node
Exit 0 on success, 1 on failure.
"""

import os
import selectors
import socket
import subprocess
import sys
import tempfile
import time

N = 4
BURST = 20
DEADLINE_S = 60
EXIT_TIMEOUT_S = 30


def free_ports(n):
    """Ports the kernel handed out to n sockets bound at once."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def read_deliveries(procs, want):
    """Reads every process's stdout until each holds `want` lines."""
    lines = {i: [] for i in range(len(procs))}
    partial = {i: b"" for i in range(len(procs))}
    sel = selectors.DefaultSelector()
    for i, p in enumerate(procs):
        sel.register(p.stdout, selectors.EVENT_READ, i)
    deadline = time.monotonic() + DEADLINE_S
    while any(len(v) < want for v in lines.values()):
        left = deadline - time.monotonic()
        if left <= 0:
            counts = {i: len(v) for i, v in lines.items()}
            raise RuntimeError(f"deadline: delivery lines per node {counts}")
        for key, _ in sel.select(timeout=left):
            i = key.data
            chunk = os.read(key.fileobj.fileno(), 65536)
            if not chunk:
                raise RuntimeError(
                    f"node {i} closed stdout after {len(lines[i])} lines")
            *done, partial[i] = (partial[i] + chunk).split(b"\n")
            lines[i].extend(line.decode() for line in done)
    if any(len(v) > want for v in lines.values()):
        raise RuntimeError("a node printed more than "
                           f"{want} lines: { {i: len(v) for i, v in lines.items()} }")
    return [lines[i] for i in range(len(procs))]


def check_outputs(outputs):
    first = outputs[0]
    for i, out in enumerate(outputs[1:], start=1):
        if out != first:
            diff = next(k for k, (a, b) in enumerate(zip(first, out)) if a != b)
            raise RuntimeError(f"node {i} diverges from node 0 at line {diff}: "
                               f"{out[diff]!r} vs {first[diff]!r}")
    seen = {}
    for line in first:
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise RuntimeError(f"unparseable delivery line {line!r}")
        _, origin, payload = parts
        seen[(origin, payload)] = seen.get((origin, payload), 0) + 1
    want = {(f"p{o}", f"burst-{o}-{k}") for o in range(N) for k in range(BURST)}
    if set(seen) != want or any(c != 1 for c in seen.values()):
        missing = sorted(want - set(seen))
        extra = sorted(set(seen) - want)
        dups = sorted(k for k, c in seen.items() if c != 1)
        raise RuntimeError(f"payloads: missing {missing[:5]}, unexpected "
                           f"{extra[:5]}, duplicated {dups[:5]}")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    binary = sys.argv[1]
    members = ",".join(f"127.0.0.1:{p}" for p in free_ports(N))
    procs, logs = [], []
    try:
        for i in range(N):
            log = tempfile.TemporaryFile()
            logs.append(log)
            procs.append(subprocess.Popen(
                [binary, "--id", str(i), "--members", members,
                 "--secret", "smoke", "--burst", str(BURST)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log))
        outputs = read_deliveries(procs, N * BURST)
        check_outputs(outputs)
        for p in procs:
            p.stdin.write(b"/quit\n")
            p.stdin.close()
        codes = [p.wait(timeout=EXIT_TIMEOUT_S) for p in procs]
        if codes != [0] * N:
            raise RuntimeError(f"exit codes {codes}")
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print(f"ritas_node smoke: FAIL: {e}", file=sys.stderr)
        for i, log in enumerate(logs):
            log.seek(0)
            print(f"--- node {i} stderr ---\n{log.read().decode(errors='replace')}",
                  file=sys.stderr)
        return 1
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    print(f"ritas_node smoke: {N} processes delivered the same "
          f"{N * BURST} messages and exited cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
