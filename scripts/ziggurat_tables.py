#!/usr/bin/env python3
"""numpy's ziggurat tables for standard normals, read back from numpy's own sampler.

    python3 scripts/ziggurat_tables.py          # print the committed form, streams._ZIGGURAT
    python3 scripts/ziggurat_tables.py --check  # exit 1 if the committed form differs from this numpy's

Generator.standard_normal splits one raw PCG64 word r into idx = r & 0xff, a sign bit and the
52-bit rabs = r >> 9, and returns +-rabs * wi[idx] at once when rabs < ki[idx] (the fast path that
streams.Streams runs for many rows at once).  The script sets PCG64.state so that the next two raw
words are chosen: wi[idx] is the draw at rabs = 1 (a second word of 0 accepts the same value on the
slow path of a strip whose ki is 0), and ki[idx] is the least rabs whose draw reads more than one
word, found by bisection.
"""

import argparse
import base64
import sys
from pathlib import Path

import numpy as np
from numpy.random import PCG64, Generator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from spdorders import streams  # noqa: E402

MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's: state <- MULT * state + inc per raw word
MASK = (1 << 128) - 1
WIDTH = 104  # base64 characters per line of the committed form


def tables() -> tuple[np.ndarray, np.ndarray]:
    bits = PCG64(0)
    normal = Generator(bits).standard_normal

    def draw(word: int) -> tuple[float, bool]:
        """The draw when the next raw words are word, then 0, and whether it read one word only.
        A state whose high half is 0 outputs its low half, so the states after the two words
        are word and 0, and the increment and the state before them follow."""
        inc = -word * MULT & MASK
        before = (word - inc) * pow(MULT, -1, 1 << 128) & MASK
        bits.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc}, "has_uint32": 0,
                      "uinteger": 0}
        x = normal()
        return x, bits.state["state"]["state"] == word

    wi = np.array([draw(1 << 9 | idx)[0] for idx in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    for idx in range(256):
        lo, hi = 0, 1 << 52
        while lo < hi:  # the fast path holds exactly for rabs < ki
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if draw(mid << 9 | idx)[1] else (lo, mid)
        ki[idx] = lo
    return wi, ki


def committed_form(wi: np.ndarray, ki: np.ndarray) -> str:
    return base64.b64encode(wi.astype("<f8").tobytes() + ki.astype("<u8").tobytes()).decode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="exit 1 if streams._ZIGGURAT differs")
    args = parser.parse_args(argv)
    text = committed_form(*tables())
    if args.check:
        same = text == streams._ZIGGURAT
        print(f"streams._ZIGGURAT {'matches' if same else 'DIFFERS from'} numpy {np.__version__}'s ziggurat tables")
        return 0 if same else 1
    lines = [text[i:i + WIDTH] for i in range(0, len(text), WIDTH)]
    print("_ZIGGURAT = (\n" + "\n".join(f'    "{line}"' for line in lines) + "\n)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
