"""The benchmark's speed reference: a basket of small Python loops whose
speed tracks the machine's.

    python3 perfbench/reference.py

Reads one line per sample from standard input and answers, on a line of
its own, the machine's speed over the sample: the geometric mean, over the
loops in BASKET, of each loop's steps a second divided by its NOMINAL rate
(1.0 is nominal speed, 0.8 is 20% slower).  It exits at the end of its
input.  `run.py` starts it before any measured child, in a process of its
own, so that the table it holds is not counted in the peak RSS of the
children the benchmark forks.

On a shared host, different kinds of work slow down by different amounts
from one minute to the next; no single loop tracked both the cold census
commands and the in-process queries as well as the basket does: random
lookups in a dict too big for the caches (memory), integer arithmetic,
brute-force associativity checks of small tables (interpreter work like
the program's own), and argument parsing (like the command line's).
"""
from __future__ import annotations

import argparse
import math
import random
import sys
import time

SLICE_S = 0.03     # each loop runs this long in a sample


class Memory:
    ENTRIES = 300_000
    STEP = 5_000

    def __init__(self):
        rng = random.Random(0)
        self.keys = [(rng.randrange(1 << 20), i) for i in range(self.ENTRIES)]
        self.table = {k: i for i, k in enumerate(self.keys)}
        self.walk = list(range(self.ENTRIES))
        rng.shuffle(self.walk)
        self.pos = 0

    def step(self):
        keys, table, total = self.keys, self.table, 0
        for j in self.walk[self.pos:self.pos + self.STEP]:
            a, b = keys[j]
            total += table[a, b]
        self.pos = (self.pos + self.STEP) % (self.ENTRIES - self.STEP)
        return total


def arithmetic():
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


TABLES = [tuple((x * y + i) % 3 for x in range(3) for y in range(3)) for i in range(3)]


def associativity():
    n = 3
    return [all(t[t[x * n + y] * n + z] == t[x * n + t[y * n + z]]
                for x in range(n) for y in range(n) for z in range(n)) for t in TABLES]


PARSER = argparse.ArgumentParser(prog="reference")
PARSER.add_argument("command")
PARSER.add_argument("--kind", choices=("semigroup", "dimonoid"))
PARSER.add_argument("--out")


def arguments():
    return PARSER.parse_args(["classify", "--kind", "dimonoid", "--out", "x.txt"])


# steps a second of each loop, near a quiet 2-vCPU host's
NOMINAL = {"memory": 160.0, "arithmetic": 6500.0, "associativity": 75000.0,
           "arguments": 42000.0}


def rate(step):
    steps = 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < SLICE_S:
        step()
        steps += 1
    return steps / elapsed


def main():
    basket = {"memory": Memory().step, "arithmetic": arithmetic,
              "associativity": associativity, "arguments": arguments}
    for _ in sys.stdin:
        logs = [math.log(rate(step) / NOMINAL[name]) for name, step in basket.items()]
        print(math.exp(sum(logs) / len(logs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
