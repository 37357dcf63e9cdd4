"""A fixed reference work that measures how fast the machine runs now.

The host the benchmark was tuned on (2 shared cores) changes speed by up
to 1.6-fold within minutes: a fixed loop's CPU time moves with its wall
time, so the machine runs slower rather than losing time to other
tenants. Wall times taken minutes apart then differ by more than any
bound a regression gate can use, even as medians of many samples (over
ten runs of 60 s, quartile spreads of 0.14-0.23 for check time, and
0.30-0.33 for start-up time).

The reference work does what the program does most, with code of its own
that no change to ``tspbmc`` can alter: it starts a fresh Python child,
pipes it 200 kB of SMT-LIB-like text, and the child tokenizes it into
nested tuples and counts symbols. The timed metrics are reported as
*reference seconds*: wall seconds times ``REF_S`` over the median time of
the reference work in the same run, i.e. the wall time on a machine on
which the reference work takes ``REF_S``. In trials on that host, while
the raw pass time spread by 0.23-0.27, the time so scaled spread by 0.10;
over two sets of ten benchmark runs a workload, the largest spread of a
check time fell from 0.236 to 0.166 (``README.md``, Noise).
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

from stats import median

# Reference work time of a machine of reference speed; the tuning host
# took 0.09-0.16 s.
REF_S = 0.1

CHILD = r"""
import collections, re, sys
token = re.compile(r"\(|\)|[^\s()]+")
stack, counts = [[]], collections.Counter()
for m in token.finditer(sys.stdin.read()):
    t = m.group()
    if t == "(":
        stack.append([])
    elif t == ")":
        top = stack.pop()
        stack[-1].append(tuple(top))
    else:
        counts[t] += 1
        stack[-1].append(t)
print(len(stack[0]), len(counts))
"""

LINES = 3000
TEXT = "".join(f"(assert (or (not b{i}) (<= (- t{i} t{i + 1}) {i % 7}) "
               f"(= k{i % 13} m{i % 29})))\n" for i in range(LINES))
# the child's answer: top-level forms, distinct symbols
# (assert, or, not, <=, -, =; b*, t*, the constants, k*, m*)
EXPECTED = f"{LINES} {6 + LINES + (LINES + 1) + 7 + 13 + 29}"


def reference_seconds() -> float:
    """Wall seconds of one run of the reference work."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD], input=TEXT,
                          capture_output=True, text=True, timeout=60)
    dt = perf_counter() - t0
    if proc.returncode != 0 or proc.stdout.strip() != EXPECTED:
        raise RuntimeError(f"reference work failed ({proc.returncode}): "
                           f"{proc.stdout.strip()!r} {proc.stderr.strip()[-300:]}")
    return dt


def scale(seconds, reference):
    """``seconds`` in reference seconds, given the reference work's times
    in the same run; None stays None (a failure is not fast)."""
    if seconds is None:
        return None
    return seconds * REF_S / median(reference)
