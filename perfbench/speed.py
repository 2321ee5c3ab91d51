"""Reference interpreter work that tracks how fast this machine runs right now.

On a shared host the speed one process gets drifts by tens of percent
within seconds. The child times short slices of this fixed work on a timer
while the program runs, on the same thread and core, and the parent divides
the program's wall time by the slices' slowdown. A drift of the machine is
then divided out, and a change in the program is not.

One round mixes the kinds of work the pipeline spends its time on, with
similar working-set sizes: a pooled chi-square over the sorted union of two
~1,400-key count dicts, permuted triangle sums over an 80 x 80 list of
lists, regex tokenizing of text lines, and counting tokens into a dict. The
closer the mix, the closer the reference's slowdown follows the program's.
"""
import math
import random
import re
import time

ROUND_S = 0.003  # nominal duration of one round; fixes the unit of the rescaled times

_rng = random.Random(1881)
_POOL = [a + b + c for a in "abdefghiklmnoprstuvyæøå" for b in "abdefghiklmnoprstuvyæøå"
         for c in "aeiouyæøå"]
_COUNTS_A = {k: _rng.randint(1, 9) for k in _rng.sample(_POOL, 1400)}
_COUNTS_B = {k: _rng.randint(1, 9) for k in _rng.sample(_POOL, 1400)}
_RANKS = [[float((i * 131 + j * 71) % 3161) for j in range(80)] for i in range(80)]
_LABELS = [f"c{i % 16}" for i in range(80)]
_LINES = [" ".join(_rng.choice(_POOL) for _ in range(12)) for _ in range(40)]
_TOKEN = re.compile(r"\S+")


def reference_work(rounds: int) -> float:
    """Run `rounds` rounds of the fixed work; return the wall time."""
    start = time.perf_counter()
    acc = 0.0
    for r in range(rounds):
        na, nb = sum(_COUNTS_A.values()), sum(_COUNTS_B.values())
        terms = []
        for t in sorted(set(_COUNTS_A) | set(_COUNTS_B)):
            a, b = _COUNTS_A.get(t, 0), _COUNTS_B.get(t, 0)
            ea, eb = na * (a + b) / (na + nb), nb * (a + b) / (na + nb)
            terms.append((a - ea) ** 2 / ea + (b - eb) ** 2 / eb)
        acc += math.fsum(terms)
        for p in range(4):
            labels = list(_LABELS)
            random.Random(f"{r}:{p}").shuffle(labels)
            members = [i for i, lab in enumerate(labels) if lab == "c3"]
            acc += sum(_RANKS[i][j] for a, i in enumerate(members) for j in members[a + 1:])
        counts: dict[str, int] = {}
        for line in _LINES:
            for m in _TOKEN.finditer(line):
                word = m.group()
                counts[word] = counts.get(word, 0) + 1
        acc += len(counts)
    if acc < 0:  # keep the work observable
        raise AssertionError(acc)
    return time.perf_counter() - start
