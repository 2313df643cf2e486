"""Golden SHA-256 digests of the CLI's stdout, and a replay of them.

Each entry is a command line and the SHA-256 of the stdout it writes; a
changed digest is a changed output contract.  `tests/test_cli.py` runs
every entry under pytest.  This module needs nothing but the standard
library and hydrogrid (no pytest), so the same table can be replayed on
any installed Python:

    PYTHONPATH=src python tests/golden_stdout.py

prints one line per entry and exits 1 if any command fails or any
digest differs.
"""

import contextlib
import hashlib
import io
import sys

from hydrogrid.cli import main

GOLDEN_STDOUT = [
    ("spectrum --delta 1/2 --n 1..4 --output csv --mode exact",
     "00f05d34030041b9f109e997c82906644c9ab72f727714826ebaa20001aa1566"),
    ("spectrum --delta 1/2 --n 1..4 --output csv --mode float",
     "67a1c4297853cc7a13b895a1d1f82884e20d9cd8b5ae300087b1524f33e6a564"),
    ("spectrum --delta 1/2 --n 1..4 --output json --mode exact",
     "d03733d4b4ec43af938a611423282f39b3abcaf5afbe4a7a385147f8fd7ae1a1"),
    ("spectrum --delta 1/2 --n 1..4 --output json --mode float",
     "5d8ee8a7ce67fc2019e35e6d417713041539290e93d77eee1126c496a370374c"),
    ("wavefunction --delta 1/2 --n 1..3 --kmax 6 --output csv --mode exact",
     "ea0e290b41e4ef711bdfa2793788a23b92881d27bdb499fea2f0dfefbbf26b7e"),
    ("wavefunction --delta 1/2 --n 1..3 --kmax 6 --output csv --mode float",
     "e1876a105567fcffa6a365fe974486a35ed7a096896378d9a3057a181213dec6"),
    ("wavefunction --delta 1/2 --n 1..3 --kmax 6 --output json --mode exact",
     "f862480db672836c7fd068572d2e34e6d28bf83fb51a7308d60f96b8f7a0e2a0"),
    ("wavefunction --delta 1/2 --n 1..3 --kmax 6 --output json --mode float",
     "9accf50bb8051f79cd2c460f1ae1a0f1fe69eb668585730860581def05898d23"),
    ("pollaczek --delta 2/3 --n 0..2 --jmax 6 --output csv --mode exact",
     "eed6dd53f1fe1b5d00cc5d1394946bb8ef13d176f32b8b2f6ac1433b7af74569"),
    ("pollaczek --delta 2/3 --n 0..2 --jmax 6 --output csv --mode float",
     "d1537b094c47e3de964af57c75746f3f31c76a445de131ee813e7ee8a4184cf8"),
    ("pollaczek --delta 2/3 --n 0..2 --jmax 6 --output json --mode exact",
     "81ac55c0b5d7be7a5f472b384f191e1fdef910d4e1e4857b4d15d8e2bd93c1ab"),
    ("pollaczek --delta 2/3 --n 0..2 --jmax 6 --output json --mode float",
     "2d361d9a1f49d6f75e03a01a72c1968a75f500339dc8c71fd08046b536689758"),
    ("coeffs --delta 1 --n 3..6 --kmax 5 --output csv --mode exact",
     "0e0184bf6016f5bbad5171200e549bb500ec4a2a6c23e9be48b019aa557a6747"),
    ("coeffs --delta 1 --n 3..6 --kmax 5 --output csv --mode float",
     "3edbd0148ec9eb38681cbac27605e1af8357eba70793191e17e71458be3c7533"),
    ("coeffs --delta 1 --n 3..6 --kmax 5 --output json --mode exact",
     "88b959ebd3184da67527b40f82040c669bb3f299242e4df882db30d7a19094ab"),
    ("coeffs --delta 1 --n 3..6 --kmax 5 --output json --mode float",
     "24480b312c5dc76ecb0750639452b5b69c33929266505e02f062f9ebf4a38fca"),
    # t = 3/4 at n = 2: p = 25, so mu = 5/4 is rational, while states 1
    # and 3 print D = 13/4 and D = 5/4 with a scale
    ("spectrum --delta 3/2 --n 1..3 --output csv --mode exact",
     "0fc53c2c9dbf37c29885e5ea509d9c3159abe0015f8bd6db820afa21b8b61cec"),
    ("spectrum --delta 3/2 --n 1..3 --output csv --mode float",
     "37a581ee9df3cded1f747f3aff0dd364905ad0a6a1d5ee250f3a0f1d24da0863"),
    ("spectrum --delta 3/2 --n 1..3 --output json --mode exact",
     "0ca35e57f4e0db3e1165857688cca117445bb2cb15570f9506fd33a955ce4f25"),
    ("spectrum --delta 3/2 --n 1..3 --output json --mode float",
     "c2deb8015d0cf584e9e5807b2219bcd595094bf28917cd490751f9483e177477"),
    ("pollaczek --delta 3/2 --n 0..2 --jmax 12 --mode exact",
     "9942ac1295c223487c1c3af9f13221fbecc1733e3bdccaa3bd385b32947aa675"),
    ("pollaczek --delta 3/2 --n 0..2 --jmax 12 --mode float",
     "cdd6ca7e724e134aee7950d2106b00550344f6c37a6e5a0b6e84cc0cc1b88385"),
    ("converge --n 1..2 --deltas 1/5,1/10 --output csv --mode exact",
     "f5d34a6b9b459762a50319670711c5f9fd2ccb78ef0e404af28f613d69f61e93"),
    ("converge --n 1..2 --deltas 1/5,1/10 --output csv --mode float",
     "f5d34a6b9b459762a50319670711c5f9fd2ccb78ef0e404af28f613d69f61e93"),
    ("converge --n 1..2 --deltas 1/5,1/10 --output json --mode exact",
     "58d3377ee1421263aeb8f6295d0fea278637d92bcd4ffd0291c0dd04a14c589b"),
    ("converge --n 1..2 --deltas 1/5,1/10 --output json --mode float",
     "4649722be549da5d5361b0058af98ead6cc4b55519b6fa63097bcc80641975a6"),
    # the README's continuum-limit sweep
    ("converge --n 1..3 --deltas 1/5,1/10,1/20 --mode float",
     "73f2b67be3c0cb7fc6563ef5ef903f11623347f934a8f8b4cc22c23cee535b52"),
    # steps whose float square underflows or overflows: the gap and its
    # ratio are exact values rounded once
    ("converge --n 1..2 --deltas 1e-170,1e300 --mode float",
     "26c7378a82b931f0125556613dabcb1b74b07a1fb037d8042ddea13661d1add3"),
    ("pollaczek --delta 1/2 --n 0..1 --jmax 5 --mode float --precision-bits 64",
     "25863de7340563f7dfb4ddb4082a201e9a51d3944b7974566b504daa4bd6e511"),
    # --precision-bits has no effect: every conversion is correctly rounded
    ("pollaczek --delta 1/2 --n 0..1 --jmax 5 --mode float --precision-bits 8",
     "25863de7340563f7dfb4ddb4082a201e9a51d3944b7974566b504daa4bd6e511"),
    ("pollaczek --delta 1/2 --n 0..1 --jmax 5 --mode float "
     "--precision-bits 200",
     "25863de7340563f7dfb4ddb4082a201e9a51d3944b7974566b504daa4bd6e511"),
    ("verify --delta 1 --n 1..3 --kmax 8 --output csv",
     "d24e0aefeeb0206e469b17471caced4cba55ada66d9ed764657153d130c65a18"),
    # a mass point past 2**24 is matched within 4 ulps, not 1e-8: every
    # check passes, so the CSV is the delta = 1 entry's
    ("verify --delta 1e20 --n 1..3 --kmax 8 --mode float",
     "d24e0aefeeb0206e469b17471caced4cba55ada66d9ed764657153d130c65a18"),
    # past 2**53 the grid point k*delta is no double: the float
    # wavefunction check evaluates at the exact point, and every check
    # passes
    ("verify --delta 1e22 --n 1..8 --kmax 40 --mode float",
     "d24e0aefeeb0206e469b17471caced4cba55ada66d9ed764657153d130c65a18"),
    ("verify --delta 1e40 --n 1..8 --kmax 40 --mode float",
     "d24e0aefeeb0206e469b17471caced4cba55ada66d9ed764657153d130c65a18"),
    ("verify --delta 1 --n 1..3 --kmax 8 --output json",
     "3f6641350af5b8acdfa3f775e8f73906958c2fdbdbacd03da8947214cb160fc0"),
    ("verify --delta 3/4 --n 1..8 --kmax 41 --output json",
     "75eed157b98156b8f34428fd30be7e110919f8948f3aa891af750e29c1ee8382"),
    ("pollaczek --delta 1/2 --n 0..2 --jmax 150 --mode exact",
     "c7dc6da7effe6a175f985d82be8be2aaa8cefac23de43e650c50724572d3b1bd"),
    ("pollaczek --delta 1/2 --n 0..2 --jmax 150 --mode float",
     "26ca41ac23d2c0f7406d7e9944ea2a88084d4dca3e8484f5906e3cd4ab2533f5"),
    ("wavefunction --delta 3/4 --n 1..3 --kmax 150 --mode exact",
     "c44b0f056e16295c76f1a49f8ffaf711b2189c88996c9151dd02d6bde09a08f6"),
    ("wavefunction --delta 3/4 --n 1..3 --kmax 150 --mode float",
     "ec6d56ce29182552aef26c6bb2d1a17cba4b935dd7a5a494412bbfa6c570c4b6"),
    # benchmark job shapes
    ("coeffs --delta 3/4 --n 19..23 --kmax 187 --mode exact",
     "a40e2e0e3bda51f8f3283d55077ae18edbff7429184c63dbacfa94cf7ca32cc8"),
    ("coeffs --delta 3/4 --n 19..23 --kmax 187 --mode float",
     "094e67956da28f96c85fc0f0249b9ff2a2d7e3471062c5e2f9792d9ddb2491a2"),
    ("verify --delta 1/2 --n 1..12 --kmax 59 --output json",
     "62d4aa5d15aa8ad8fedb83ea42a0e4fd90f88c0bd83a523b0716210a6a82571e"),
    # deep levels of the coefficient recursion: every level up to n - 1
    ("coeffs --delta 7/3 --n 36..40 --kmax 39 --mode exact",
     "008ff7ca80aea5af77fea3bfd9d8287ed2b08181c764787410f1f7713eaedfad"),
    ("coeffs --delta 7/3 --n 36..40 --kmax 39 --mode float --output json",
     "bfedb1b0a13d0a2b3f3192da000baba5e51f238dd5f130bc5d250be45e5e20ed"),
    # exact tables at the sizes the benchmark runs, whose cells run to
    # 600-900 characters
    ("wavefunction --delta 3/4 --n 1..8 --kmax 166 --output csv --mode exact",
     "18156177b69865d3a0f7f27e6b278c8d479c8857a8a2232d0d15935b035263ea"),
    ("pollaczek --delta 1/2 --n 0..6 --jmax 162 --output json --mode exact",
     "b3ff14e98eb18e8181f50b13e05d619a8ac3e91facae16c23b16615447b3b4dc"),
]


def stdout_digest(argv: str) -> tuple[int, str]:
    """Exit code and SHA-256 of the stdout of `hydrogrid <argv>`; the
    command's stderr is dropped."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def replay() -> int:
    failures = 0
    for argv, digest in GOLDEN_STDOUT:
        code, got = stdout_digest(argv)
        ok = code == 0 and got == digest
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {argv}"
              + ("" if ok else f" (exit {code}, sha256 {got})"))
    print(f"{len(GOLDEN_STDOUT) - failures} of {len(GOLDEN_STDOUT)} match "
          f"on Python {sys.version.split()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(replay())
