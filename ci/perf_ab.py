#!/usr/bin/env python3
"""Judge a candidate perf_microbench against a base build on one host.

    python3 ci/perf_ab.py BASE_BIN CAND_BIN

BASE_BIN and CAND_BIN are google-benchmark programs, in CI the Release
perf_microbench of the merge base and of the change. Each lists its rows
(`--benchmark_list_tests`). A row both register is measured one process
per run (`--benchmark_filter=^ROW$ --benchmark_format=json`) in blocks of
four runs: BASE, CAND, CAND, BASE. A block gives one paired log ratio of
CAND's time over BASE's, so the host's drift between blocks cancels. The
rows take turns block by block.

A sign-test interval on each row's median ratio is read against a fixed
margin:

    REGRESSED   the interval lies above 1 + MARGIN; gates
    IMPROVED    the interval lies below 1 / (1 + MARGIN)
    UNCHANGED   the interval lies between those two bounds
    UNRESOLVED  the interval crosses one of them; the row gets
                STEP_BLOCKS more blocks until it has MAX_BLOCKS

The sign test assumes nothing about how the ratios are distributed. Its
confidence is split evenly over the rows and the looks, so the chance
that any interval of a run misses its median stays below 1 - CONFIDENCE.
BM_CampaignJobs' jobs-8 over jobs-1 time ratio, paired block by block on
each side, is one more row: a change that stops the campaign scaling
reads REGRESSED there even when its serial time holds.

A row only CAND registers reads NEW, one only BASE registers reads GONE;
neither gates, and a NEW row is run once to show that it measures. A row
CAND registers but cannot measure (the run fails, reports error_occurred
or prints no row of that name) reads FAILED and gates. A row only BASE
cannot measure reads NEW.

Prints one line per row: verdict, median ratio CAND/BASE and interval,
blocks. Exit status: 0 when nothing gates, 1 on a REGRESSED or FAILED
row, 2 on a usage error or when a binary cannot list its rows. Takes no
option and reads no environment variable; needs python3 alone.
"""
import json
import math
import re
import statistics
import subprocess
import sys
import time

# google-benchmark 1.7.1 takes a bare double. At 0.05 s, the value the
# cross-host gate used, a filtered run takes 0.07-0.12 s of wall time on
# a 4-vCPU VM (0.3-0.4 s for BM_ServeClassify): a block of every row
# takes 18 s.
MIN_TIME = "0.05"
# A/A on that VM: one Release build as both sides, 24 blocks of each of
# the 41 rows, taking turns. The rows' median block ratios were
# 0.96-1.05. After 14 and then 22 blocks a 10% margin settled 7 and 32
# of the 42 rows, 15% settled 18 and 37, 20% settled 24 and 38: 15% is
# the narrowest margin that settles nearly every row by the second look.
MARGIN = 0.15
# 1 - CONFIDENCE bounds the chance that any interval of a run misses its
# row's median.
CONFIDENCE = 0.95
# The fewest blocks with a sign-test interval once the confidence is split
# over 42 rows and 5 looks: 2**-14 <= 0.05 / 210 / 2 < 2**-13. Up to 81
# rows keep it so; with more, the first look has no interval.
FIRST_BLOCKS = 14
# Eight more blocks took the A/A run from 18 to 37 settled rows.
STEP_BLOCKS = 8
# The per-row budget: looks at 14, 22, 30, 38 and 46 blocks. The A/A run
# left 5 rows open after 22 blocks; every row at the budget would take
# 46 blocks of 18 s, 14 minutes.
MAX_BLOCKS = 46
SCALING = ("BM_CampaignJobs/1/real_time", "BM_CampaignJobs/8/real_time")
SCALING_ROW = "BM_CampaignJobs jobs-8/jobs-1"

UNIT_S = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


class Unmeasured(Exception):
    def __init__(self, binary: str, reason: str):
        super().__init__(reason)
        self.binary = binary


def list_rows(binary: str) -> list[str]:
    return subprocess.run([binary, "--benchmark_list_tests"], check=True,
                          capture_output=True, text=True).stdout.split()


def measure(binary: str, row: str) -> float:
    """Seconds per iteration in one filtered run of `row`."""
    pattern = re.sub(r"([.^$|()\[\]{}*+?\\])", r"\\\1", row)
    run = subprocess.run(
        [binary, f"--benchmark_filter=^{pattern}$", "--benchmark_format=json",
         f"--benchmark_min_time={MIN_TIME}"], capture_output=True, text=True)
    if run.returncode != 0:
        raise Unmeasured(binary, f"exit status {run.returncode}")
    try:
        found = [b for b in json.loads(run.stdout)["benchmarks"]
                 if b["name"] == row]
        if not found:
            raise Unmeasured(binary, "no row of that name in the report")
        if found[0].get("error_occurred"):
            raise Unmeasured(binary, found[0].get("error_message", "error"))
        seconds = found[0]["real_time"] * UNIT_S[found[0]["time_unit"]]
    except (ValueError, KeyError, TypeError):
        raise Unmeasured(binary, "no JSON report") from None
    if not seconds > 0:
        raise Unmeasured(binary, f"a real_time of {seconds} s")
    return seconds


def block(base: str, cand: str, row: str) -> float:
    """log(CAND / BASE) from one BASE, CAND, CAND, BASE block."""
    a1 = measure(base, row)
    b1 = measure(cand, row)
    b2 = measure(cand, row)
    a2 = measure(base, row)
    return 0.5 * (math.log(b1 * b2) - math.log(a1 * a2))


def unmeasured(cand: str, row: str, error: Unmeasured) -> tuple[str, str]:
    """The verdict on a row one side could not measure."""
    if error.binary != cand:
        try:
            measure(cand, row)
            return "NEW", f"BASE cannot measure it: {error}"
        except Unmeasured as cand_error:
            error = cand_error
    return "FAILED", f"CAND cannot measure it: {error}"


def sign_interval(ratios: list[float], alpha: float):
    """(x_(k), x_(n+1-k)) of the sorted ratios for the largest k with
    P(Binomial(n, 1/2) < k) <= alpha / 2, which covers the median with
    probability at least 1 - alpha; None when no k >= 1 qualifies."""
    n, xs = len(ratios), sorted(ratios)
    k, tail = 0, 0.0
    while k < n // 2 and tail + math.comb(n, k) / 2 ** n <= alpha / 2:
        tail += math.comb(n, k) / 2 ** n
        k += 1
    return (xs[k - 1], xs[n - k]) if k else None


def judge(ratios: list[float], alpha: float) -> tuple[str, str]:
    interval = sign_interval(ratios, alpha)
    shown = f"x{math.exp(statistics.median(ratios)):.3f}" if ratios else "-"
    if interval is None:
        return "UNRESOLVED", shown
    lo, hi = interval
    shown += f" [{math.exp(lo):.3f}, {math.exp(hi):.3f}]"
    edge = math.log1p(MARGIN)
    if lo > edge:
        return "REGRESSED", shown
    if hi < -edge:
        return "IMPROVED", shown
    if lo >= -edge and hi <= edge:
        return "UNCHANGED", shown
    return "UNRESOLVED", shown


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, cand = sys.argv[1:]
    try:
        base_rows, cand_rows = list_rows(base), list_rows(cand)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perf_ab: cannot list rows: {error}", file=sys.stderr)
        return 2
    started = time.monotonic()

    verdicts = {}  # row -> (verdict, detail), once settled
    for row in base_rows:
        if row not in cand_rows:
            verdicts[row] = ("GONE", "")
    for row in cand_rows:
        if row not in base_rows:
            try:
                measure(cand, row)
                verdicts[row] = ("NEW", "")
            except Unmeasured as error:
                verdicts[row] = unmeasured(cand, row, error)
    shared = [row for row in cand_rows if row in base_rows]
    ratios = {row: [] for row in shared}
    scaling = all(row in shared for row in SCALING)
    rows = shared + [SCALING_ROW] * scaling

    looks = 1 + (MAX_BLOCKS - FIRST_BLOCKS) // STEP_BLOCKS
    alpha = (1 - CONFIDENCE) / (len(rows) * looks) if rows else 1.0
    print(f"perf_ab: margin {MARGIN:.0%}, confidence {CONFIDENCE:.0%} over "
          f"{len(rows)} rows x {looks} looks", flush=True)

    def series(row: str) -> list[float]:
        if row != SCALING_ROW:
            return ratios[row]
        one, eight = (ratios[r] for r in SCALING)
        return [b8 - b1 for b1, b8 in zip(one, eight)]

    open_rows = list(rows)
    broken = set()  # rows a side could not measure; their verdict is set
    want = FIRST_BLOCKS
    while open_rows:
        needed = [row for row in shared if row not in broken and (
            row in open_rows or (SCALING_ROW in open_rows and row in SCALING))]
        for _ in range(want - min((len(ratios[row]) for row in needed),
                                  default=want)):
            # Blocks go round the rows, so a slow stretch of the host
            # touches a few blocks of many rows, not every block of one.
            for row in needed:
                if row in broken or len(ratios[row]) >= want:
                    continue
                try:
                    ratios[row].append(block(base, cand, row))
                except Unmeasured as error:
                    verdicts[row] = unmeasured(cand, row, error)
                    broken.add(row)
        for row in list(open_rows):
            if row == SCALING_ROW and broken.intersection(SCALING):
                verdicts[row] = ("UNRESOLVED", "a jobs row was not measured")
            elif row not in broken:
                verdict, shown = judge(series(row), alpha)
                if verdict == "UNRESOLVED" and want < MAX_BLOCKS:
                    continue
                verdicts[row] = (verdict, f"{shown}  {len(series(row))} blocks")
            open_rows.remove(row)
        print(f"perf_ab: {want} blocks: {len(rows) - len(open_rows)} of "
              f"{len(rows)} rows settled ({time.monotonic() - started:.0f} s)",
              file=sys.stderr, flush=True)
        want += STEP_BLOCKS

    order = cand_rows + [row for row in base_rows if row not in cand_rows]
    order += [SCALING_ROW] * scaling
    width = max(map(len, order), default=0)
    counts = {}
    for row in order:
        verdict, detail = verdicts[row]
        counts[verdict] = counts.get(verdict, 0) + 1
        print(f"{row:<{width}}  {verdict:<10}  {detail}".rstrip())
    summary = ", ".join(f"{n} {verdict}" for verdict, n in sorted(counts.items()))
    print(f"perf_ab: {len(order)} rows: {summary} "
          f"({time.monotonic() - started:.0f} s)")
    return 1 if "REGRESSED" in counts or "FAILED" in counts else 0


if __name__ == "__main__":
    sys.exit(main())
