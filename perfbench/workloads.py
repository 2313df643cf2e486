"""Seeded job lists for the four benchmark workloads.

A job list is what one client runs, one job at a time, each job in a fresh
process.  Every list covers each step in `DELTAS` for every job type, so
all seeds do comparable work; the seed draws the sizes, which step gets
the larger one, and the order.  Sizes come in antithetic pairs (u and 1-u
of the range), which keeps the work of a list close to constant while the
inputs change with the seed: the spread between seeds counts against the
benchmark's bounds just like the run-to-run noise.
"""

from __future__ import annotations

import random

# Lattice steps every list runs.  Smaller steps (1/3, 1/5) slow the
# decay of the eigenvectors and make one verify job 6-12 s, longer than
# a whole list may take.
DELTAS = ("1/2", "3/4")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("verify", "tables-exact", "tables-float", "solvers")


def _sizes(rng: random.Random, *ranges) -> list[tuple[int, ...]]:
    """Sizes for one job per delta, from one draw u in [0, 1).

    Each range is (lo, hi, power): job cost grows about like size**power.
    One delta gets the size whose size**power lies a share u up the range,
    the other the antithetic share 1 - u, so the two costs add up to about
    the same at every u; a coin decides which delta gets which.
    """
    u = rng.random()
    sides = [u, 1 - u]
    rng.shuffle(sides)
    return [tuple(round((lo ** p + v * (hi ** p - lo ** p)) ** (1 / p))
                  for lo, hi, p in ranges)
            for v in sides]


def _cli(argv: list[str], **extra) -> dict:
    return {"kind": "cli", "argv": argv, **extra}


def _tables(rng: random.Random, mode: str) -> list[dict]:
    # Fixed state ranges keep kmax/jmax the only size that varies for
    # wavefunction and pollaczek; coeffs caps kmax at n-1, so its state
    # range varies instead.
    jobs = []
    tail = ["--mode", mode]
    for delta, (kmax,) in zip(DELTAS, _sizes(rng, (120, 200, 1))):
        jobs.append(_cli(["wavefunction", "--delta", delta, "--n", "1..8",
                          "--kmax", str(kmax)] + tail))
    for delta, (jmax,) in zip(DELTAS, _sizes(rng, (120, 200, 2))):
        jobs.append(_cli(["pollaczek", "--delta", delta, "--n", "0..6",
                          "--jmax", str(jmax)] + tail))
    sizes = _sizes(rng, (16, 24, 1), (120, 200, 1))
    for delta, (n_hi, kmax) in zip(DELTAS, sizes):
        n_lo = n_hi - 4
        jobs.append(_cli(["coeffs", "--delta", delta, "--n", f"{n_lo}..{n_hi}",
                          "--kmax", str(kmax)] + tail,
                         sample_n=sorted({n_lo, rng.randint(n_lo, n_hi)})))
    return jobs


def _verify(rng: random.Random) -> list[dict]:
    sizes = _sizes(rng, (8, 12, 1), (40, 60, 1))
    return [_cli(["verify", "--delta", delta, "--n", f"1..{n_hi}",
                  "--kmax", str(kmax), "--output", "json"])
            for delta, (n_hi, kmax) in zip(DELTAS, sizes)]


def _solvers(rng: random.Random) -> list[dict]:
    # Each delta runs both sides of the pair: how many eigenvalues the
    # bisection visits depends on delta, so one side per delta would leave
    # the list's work depending on which delta drew the larger size.
    # Bisection visits about sqrt(size) eigenvalues at O(size) each.
    sizes = _sizes(rng, (2000, 8000, 1.5), (16, 24, 1))
    return [{"kind": "solvers", "spec": {"delta": delta, "size": size, "n": n}}
            for delta in DELTAS for size, n in sizes]


def job_list(workload: str, seed: int) -> list[dict]:
    """The seeded job list of one workload, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        jobs = _verify(rng)
    elif workload == "tables-exact":
        jobs = _tables(rng, "exact")
    elif workload == "tables-float":
        jobs = _tables(rng, "float")
    elif workload == "solvers":
        jobs = _solvers(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{seed}-{i}"
    return jobs
