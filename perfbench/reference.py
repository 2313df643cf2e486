"""Fixed reference work that measures how fast the machine is right now.

It runs between the benchmark's jobs in a fresh process, like a job, and
does the kind of work hydrogrid does (interpreter start, big-integer
rational arithmetic, a float loop) without importing hydrogrid, so no
change to hydrogrid changes its time.  run.py scales its time metrics by
this process's time to cancel the drift of a shared machine.
"""

from fractions import Fraction


def work() -> int:
    a, b, x = Fraction(3, 7), Fraction(5, 11), Fraction(1)
    for _ in range(2000):
        x = x * a + b
    s = 0.0
    for i in range(1, 600000):
        s += 1.0 / i
    return len(str(x.numerator)) + int(s)


if __name__ == "__main__":
    print(work())
