"""Stacked random streams: the streams of seeds.seeded_rngs drawn for many
rows at once, bit for bit.  numpy's PCG64 runs as 128-bit integer
arithmetic on uint64 arrays, its raw words feed the fast paths of
numpy's samplers, and a row that leaves them falls back to its
seeded_rngs generator.  seeds.seeded_streams imports the module with the
first stack that a vector pass serves, so importing the package skips it."""

from __future__ import annotations

import binascii
import copy
from functools import cache

import numpy as np

from .seeds import _MASK32, MAX_VECTOR_WORDS, seeded_rngs

# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit state s and increment c, stepped
# s <- MULT s + c before each raw word, which is XSL-RR: hi ^ lo of s rotated right by s >> 122
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _S32 = np.uint64(_MASK32), np.uint64(32)

@cache
def _jumps() -> np.ndarray:
    """j steps take s to A_j s + C_j c (mod 2^128): for j = 1..MAX_VECTOR_WORDS + 1,
    a read-only (4, 2, j, 1) array of the hi word, the lo word and the lo word's
    low and high 32 bits of A_j and C_j."""
    a, c, consts = 1, 0, []
    for _ in range(MAX_VECTOR_WORDS + 1):
        a, c = a * _PCG_MULT & (1 << 128) - 1, (c * _PCG_MULT + 1) & (1 << 128) - 1
        consts.append([[v >> 64, v & 0xFFFFFFFFFFFFFFFF, v & _MASK32, v >> 32 & _MASK32] for v in (a, c)])
    jumps = np.ascontiguousarray(np.array(consts, dtype=np.uint64).transpose(2, 1, 0)[..., None])
    jumps.flags.writeable = False  # contiguous: the products' inner loops then run along the rows
    return jumps


def _pcg64_words(state: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count raw words (count, k) from k PCG64 states (hi/lo, [s, c], k), each
    kept one step behind, and the states they leave behind (hi/lo, k).

    Word j's state A_j s + C_j c is a sum of products of a row's value and
    a column's constant, so the rows run along the arrays' last axis; the
    products run in place, so that few of them are alive at once."""
    hi, lo = state[:, :, None]
    a_hi, a_lo, a0, a1 = _jumps()[:, :, :count + 1]
    low = lo * a_lo
    s_lo = low[0] + low[1]
    carry = s_lo < low[0]
    del low
    x0, x1 = lo & _M32, lo >> _S32  # lo * a_lo's high word by 32-bit pieces (Hacker's Delight's mulhu)
    high = x0 * a0
    high >>= _S32
    high += x1 * a0
    mid = high & _M32
    mid += x0 * a1
    mid >>= _S32
    high >>= _S32
    high += mid
    del mid
    high += x1 * a1
    high += lo * a_hi
    high += hi * a_lo
    s_hi = high[0] + high[1]
    s_hi += carry
    del high
    after = np.array([s_hi[count - 1], s_lo[count - 1]])
    x, rot = s_hi[1:] ^ s_lo[1:], s_hi[1:] >> np.uint64(58)  # XSL-RR
    del s_hi, s_lo
    words = x >> rot
    x <<= np.uint64(64) - rot & np.uint64(63)
    words |= x
    return words, after


def _initial_state(words: np.ndarray) -> np.ndarray:
    """PCG64 seeded by each row of seed words (k, 4), one step behind, as (hi/lo, [s, c], k):
    c = words[2:] << 1 | 1 and s = words[:2] + c (seeding ends in the step)."""
    w, one = words.T, np.uint64(1)
    c_hi, c_lo = w[2] << one | w[3] >> np.uint64(63), w[3] << one | one
    s_lo = w[1] + c_lo
    return np.array([[w[0] + c_hi + (s_lo < c_lo), c_hi], [s_lo, c_lo]])


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables by the 9 low bits of a raw word (strip, then sign):
    signed wi and ki.  ki[1] is 0, so that strip always takes the slow path."""
    tables = np.frombuffer(binascii.a2b_base64(_ZIGGURAT), dtype="<u8")
    wi = tables[:256].view("<f8")
    signed = np.concatenate([wi, -wi]), np.tile(tables[256:], 2)
    for table in signed:
        table.flags.writeable = False  # cached: every draw reads the same arrays
    return signed


def _fast_normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """standard_normal's fast path on raw words (m, k), which it overwrites:
    its values, and the rows whose every word takes it."""
    wi, ki = _ziggurat()
    strip = (words & np.uint64(0x1FF)).view(np.int64)
    words >>= np.uint64(9)  # in place: rabs
    words &= np.uint64(0xFFFFFFFFFFFFF)
    values = wi[strip]
    values *= words
    return values, (words < ki[strip]).all(axis=0)


def _doubles(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """random() on raw words (m, k): every row's."""
    return (words >> np.uint64(11)) * 2.0**-53, np.ones(words.shape[1], dtype=bool)


class Streams:
    """The streams of seeded_rngs(words), which a draw serves by one vector
    pass of numpy's PCG64 and the fast paths of its samplers, bit for bit.
    A row that leaves them gets its seeded_rngs generator, advanced past the
    row's drawn words, for that draw and every later one; so do all rows of a
    draw of more than MAX_VECTOR_WORDS words.  A slice or an index array of
    rows gives a view drawing on the same streams."""

    __slots__ = ("rows", "_rngs", "_words", "_state", "_drawn")

    def __init__(self, words: np.ndarray):
        k = len(words)
        self.rows, self._rngs, self._words = np.arange(k), [None] * k, words
        # raw words drawn per row on the vector pass, or -1 once the row has its generator
        self._state, self._drawn = _initial_state(words), np.zeros(k, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, key):
        view = copy.copy(self)
        view.rows = self.rows[key]
        return view

    def _materialise(self, rows: np.ndarray) -> None:
        """Give these rows their seeded_rngs generators, advanced past the words each has drawn."""
        for row, drawn, rng in zip(rows.tolist(), self._drawn[rows].tolist(), seeded_rngs(self._words[rows])):
            if drawn:
                rng.bit_generator.advance(drawn)
            self._rngs[row] = rng
        self._drawn[rows] = -1

    def serve(self, out: np.ndarray, count: int, normal: bool) -> list:
        """Fill the rows of out (one per stream) that a vector pass serves, each
        count standard normals, else one random(); return (row, generator)
        for the other rows, in order."""
        rows = self.rows
        at = np.flatnonzero(self._drawn[rows] >= 0)
        if count <= MAX_VECTOR_WORDS and len(at):
            words, state = _pcg64_words(self._state[..., rows[at]], count)
            values, ok = (_fast_normals if normal else _doubles)(words)
            out.reshape(len(out), -1)[at] = values.T  # the rows that left the fast path draw again below
            self._state[:, 0, rows[at]] = state
            self._drawn[rows[at[ok]]] += count
            at = at[~ok]
        if len(at):
            self._materialise(rows[at])
        slow = np.flatnonzero(self._drawn[rows] < 0).tolist()
        return [(i, self._rngs[row]) for i, row in zip(slow, rows[slow].tolist())]


# numpy's ziggurat tables for standard normals, printed by scripts/ziggurat_tables.py (--check tests
# them): base64 of wi (256 little-endian float64), then ki (256 little-endian uint64)
_ZIGGURAT = (
    "edkVeDtJzzzG9v3jC42LPLRbLDyvUJI8YTtEOLl8lTwMpy/o/AGYPLzQTC4MI5o892E4L00AnDx0cnRaL6ydPMPVTC1IMp88rbuOJzJN"
    "oDxDXQI7BfWgPHc2QZemkqE89Rp6j6InojyA2GM4LrWiPPWRV8A/PKM8L7GiwZ69ozxVm/+N7zmkPKf+PTa7saQ8dNMaYnUlpTyWzgen"
    "gJWlPOp+2c8xAqY8PXyjYdJrpjxwBQCSotKmPKb4RtPaNqc8dyqzEK2YpzxD9UatRfinPHcKQ1PMVag8mnZ7nmSxqDyYz06pLgupPOoe"
    "LIJHY6k8RsU4jsm5qTwsp6TczA6qPFnNd21nYqo8MBYQbq20qjycbBNtsQWrPCl6QoeEVas8Op9Sjjakqzwygr8q1vGrPPNOWflwPqw8"
    "YTsypROKrDyLJnL+ydSsPEi3gA6fHq08EB/kKZ1nrTzDuCMAzq+tPFN28ak69608/u3Stes9rjwAb3oz6YOuPM6C+b06ya48JmLwhOcN"
    "rzyI9thU9lGvPK7Xh55tla88rC76fVPYrzzsNELgVg2wPJqPOfVALrA8/KUWnupOsDwQoHJbVm+wPAv0cZCGj7A8E2G8hH2vsDx/zEtm"
    "Pc+wPGsIFkvI7rA87hWVMiAOsTy+DzEHRy2xPEGRjp8+TLE8HiDEvwhrsTw02ngap4mxPIht7lEbqLE8yyr4+GbGsTwu1OCTi+SxPJ+g"
    "QJmKArI86cbEcmUgsjwfw+l9HT6yPPtrqQy0W7I8f9MdZip5sjwb1xnHgZayPNouuGK7s7I8U7jhYtjQsjyOqcvo2e2yPNdIbg3BCrM8"
    "MLn04Y4nszyhXiZwRESzPNVSyrriYLM8algFvmp9szxksrJv3ZmzPAM9uL87trM84B1WmIbSszyDWnLevu6zPHSe4HHlCrQ8XXSmLfsm"
    "tDykMDzoAEO0PF3HynP3XrQ8NsNmnt96tDwvj0gyupa0PF1BAvaHsrQ83BGzrEnOtDwFpjgWAOq0PGJVXu+rBbU8WosK8k0htTxPZmrV"
    "5jy1PMiyG053WLU8eF9VDgB0tTwUhQ7GgY+1PFkbJCP9qrU8PXN90XLGtTzTjC974+G1PDhen8hP/bU8wx+jYLgYtjyisKLoHTS2PAsm"
    "twSBT7Y8cpbJV+Jqtjw3MbGDQoa2PLGyUCmiobY8u0Oz6AG9tjxS0yhhYti2PFT4YTHE87Y862iL9ycPtzzGFGlRjiq3PNzucNz3Rbc8"
    "H3PlNWVhtzxJ9O/61ny3PJO9ushNmLc8CRSLPMqztzz7ItvzTM+3POfec4zW6rc8H+qGpGcGuDx2hsjaACK4PBWfic6iPbg8vfXRH05Z"
    "uDzFfnpvA3W4PC33R1/DkLg8Q8AFko6suDycDKGrZci4PCdqRFFJ5Lg8j7VzKToAuTxHgyjcOBy5PPwK7xJGOLk8iqIDeWJUuTzu1XC7"
    "jnC5PDEqLonLjLk8v5k/kxmpuTws2dWMecW5PBF0byvs4bk8StL6JnL+uTySNvk5DBu6PFvIoiG7N7o8iLsLnn9UujykqUpyWnG6PD0x"
    "oGRMjro8CPGfPlarujzO9VrNeMi6PDazi+G05bo8GqHDTwsDuzxbmJrwfCC7PAAM4KAKPrs8Az3OQbVbuzwniT+5fXm7PDz35fFkl7s8"
    "biWF22u1uzyiwC5rk9O7PIOugZvc8bs8oBbsbEgQvDwtevDl1y68PBwNbhOMTbw8BYfsCGZsvDwXpuvgZou8PKuiNr2Pqrw8kNY7x+HJ"
    "vDw34GgwXum8PG6PizIGCb08IO83ENsovTxHxjMV3ki9PCPx55YQab08pfvX9HOJvTxwbiCZCaq9PA5J/PjSyr08Ny5SldHrvTwc0kn7"
    "Bg2+PPZG6sR0Lr48iNHBmRxQvjwl/pcvAHK+PAq/KkshlL48CG/3wIG2vjw6pxB2I9m+PKnsAWEI/L48IVPCijIfvzxtTbcPpEK/PGgB"
    "ySBfZr88gpeJBGaKvzy/InEYu66/PIXnL9Jg0788C/YYwVn4vzx1oNNH1A7APEfJjwKoIcA8qwKpg6k0wDzH9T5O2kfAPH6zrfY7W8A8"
    "aCanI9BuwDwXLmOPmILAPFSi6AiXlsA8xMBxdc2qwDxI1O7RPb/APDA9qjTq08A8k2URz9TowDy2n6bv//3APEFwIARuE8E8NV27myEp"
    "wTxtCcRpHT/BPDsuYEhkVcE88+6dO/lrwTxhEtJ034LBPKzrTlYamsE8ji9/d62xwTyUpnGpnMnBPDmu5Pvr4cE8Adniwp/6wTyBzASd"
    "vBPCPO7Tb3pHLcI8JJyspEVHwjzgWHbHvGHCPC5ZqPqyfMI8eA53zS6YwjxSCipTN7TCPJfbljHU0MI89XipsQ3uwjzurlbS7AvDPKOk"
    "aF57KsM8oxKuBcRJwzxAqDN60mnDPApBVpKzisM8+oiucHWswzymBBezJ8/DPHX0YKrb8sM82uW5nKQXxDyUXlQVmD3EPBU6p0TOZMQ8"
    "vEOcdWKNxDwnWmudc7fEPAKJzQ0l48Q8QazpU58QxTxCfjpSEUDFPBvkSqmxccU82Y1xi8ClxTz+0DokitzFPEwehs9pFsY86moAe85T"
    "xjzD5Z++QJXGPDLiCY1r28Y8NHpf8CgnxzxzBglWlXnHPIzO1vQt1Mc8NPIpBQM5yDwUfKq/D6vIPJZEb5TgLsk8q1dAAe7LyTxad5R4"
    "3I/KPLH9eDgfmMs8M60JgrQ7zTxq7yWAPfMOAAAAAAAAAAAAqMb7mL4IDABCgb36VKMNAOruwX72UQ4AfvfT6VWyDgC5yn6BS+8OAKpE"
    "+gpHGQ8AGMv/Ye03DwBcJWGVRk8PAJajG+SlYQ8ApJZTdXpwDwCaRCjssnwPANNXYwzxhg8A3iWDV6aPDwDa0E3HJJcPAAn12wepnQ8A"
    "dPqB9WCjDwD4S1veb6gPANxU02DxrA8AD7kYZ/uwDwDGdFONn7QPAHf+ZiPstw8ADuWh6ey6DwDtCwSdq70PAFds/2AwwA8ASKI3EILC"
    "DwDRW+J6psQPADHuepeixg8ApJYoqXrIDwCF3kteMsoPABojAunMyw8AxDn4Ek3NDwCZ7I9Ntc4PADDJHb8H0A8A5sTWTUbRDwBQ9OKo"
    "ctIPAB7J8E+O0w8AeLSQmZrUDwBTD5K4mNUPAOyZjsCJ1g8AMujIqW7XDwDoCHtUSNgPAIwsrYsX2Q8A0q2nB93ZDwCMXhBwmdoPACAu"
    "wF1N2w8A0PxbXPnbDwB9mrnrndwPAJ1yGIE73Q8AkC80iNLdDwBknzZkY94PAE5RjXDu3g8ALrSmAXTfDwBA7Zll9N8PAPIkvORv4A8A"
    "WKIlwubgDwBMuCg8WeEPAJk/vIzH4Q8Aqhzb6THiDwCRG9qFmOIPAIZBtY/74g8ASo1VM1vjDwAqANCZt+MPAH+tnukQ5A8ANHfURmfk"
    "DwBcCUzTuuQPACSV0q4L5Q8AeLxO91nlDwASEuTIpeUPAImGEz7v5Q8AeBDZbzbmDwB41cZ1e+YPAKoRHma+5g8A8vTlVf/mDwACpwBZ"
    "PucPADmePoJ75w8AonBw47bnDwBDQneN8OcPAIzwU5Ao6A8AOhc1+17oDwBkCITck+gPALzO8EHH6A8A9k59OPnoDwAdm4fMKekPAOqI"
    "0wlZ6Q8AopqT+4bpDwBmSHGss+kPANW2lCbf6Q8AfOarcwnqDwCkZvGcMuoPACyVMqta6g8AGnTVpoHqDwDwHN6Xp+oPACDZ84XM6g8A"
    "POZlePDqDwAT7C92E+sPAEoq/oU16w8AtGIxrlbrDwD6hOL0dusPABQg5l+W6w8AfJ3P9LTrDwDQSfS40usPAD4ubrHv6w8A6L0e4wvs"
    "DwAVWrFSJ+wPANOvnQRC7A8AlvEp/VvsDwD07mxAdewPALQMUNKN7A8AEh+RtqXsDwD+J8TwvOwPABX7VITT7A8As8iIdOnsDwC3kX/E"
    "/uwPACiFNXcT7Q8AA0mEjyftDwBMLyQQO+0PAG5YrftN7Q8A3cOYVGDtDwDoT0Edcu0PAIKp5FeD7Q8AyCykBpTtDwAEt4UrpO0PALRq"
    "dMiz7Q8AUmZB38LtDwBSbqRx0e0PANOKPIHf7Q8AgJmQD+3tDwAU1A8e+u0PAMRLEq4G7g8ABlrZwBLuDwDgBpBXHu4PACRlS3Mp7g8A"
    "vOQKFTTuDwA8m7g9Pu4PAPSCKe5H7g8AhrAdJ1HuDwBBf0DpWe4PAC60KDVi7g8A8ZdYC2ruDwB6Bz5sce4PAIJ7Mlh47g8AugZ7z37u"
    "DwCySkjShO4PAENjtmCK7g8AUcjMeo/uDwDaJX4glO4PAOopqFGY7g8AXEgTDpzuDwD0c3JVn+4PAK7MYiei7g8ArEJrg6TuDwBxLfxo"
    "pu4PAPrWbten7g8ACvoEzqjuDwA7M+hLqe4PABBkKVCp7g8AXgfA2ajuDwBUdonnp+4PACQdSHim7g8Ag56iiqTuDwDa5CIdou4PACQg"
    "NS6f7g8ALq8mvJvuDwDk8iTFl+4PADoKPEeT7g8AFnVVQI7uDwB6nDauiO4PAP09f46C7g8AiLin3nvuDwD/N/+bdO4PAF69qcNs7g8A"
    "fgCeUmTuDwCIKKNFW+4PALZXTplR7g8AzwYASkfuDwBQLOFTPO4PANgq4LIw7g8ABYKtYiTuDwBaPLheF+4PAEcUKqIJ7g8AzEnjJ/vt"
    "DwBsIXbq6+0PAH4EIuTb7Q8A0znODsvtDwD0LARkue0PAMk46dym7Q8Ajek3cpPtDwA2qDgcf+0PACvAudJp7Q8AAK4GjVPtDwAipN5B"
    "PO0PANgvaucj7Q8AROYvcwrtDwA0/gfa7+wPALi3DhDU7A8AtG6VCLfsDwDBMBK2mOwPAHipDQp57A8A/jEP9VfsDwBiyYZmNewPADWz"
    "tEwR7A8A0G+OlOvrDwCStqApxOsPANwM7vWa6w8AQoXJ4W/rDwCeH63TQusPAEstC7AT6w8A6QIaWeLqDwBXIpmuruoPACbjjo146g8A"
    "5XP9zz/qDwD22Y1MBOoPADtWL9bF6Q8ApEepO4TpDwAoRx1HP+kPANbFdr326A8A5ujEXaroDwDqsXrgWegPAECpkPYE6A8AwDOCSKvn"
    "DwClah91TOcPAAKiKhDo5g8A2Ku2oH3mDwB+MDifDOYPAEL3OHOU5Q8AgHKXcBTlDwBY9DbUi+QPADce/b/54w8AnLHuNV3jDwD+5C8S"
    "teIPAFdVmQMA4g8AFIN4gjzhDwCwZ+7EaOAPAKpxK7CC3w8Aqv5+xYfeDwD9O8YJdd0PABO/KeVG3A8AggIu+PjaDwB1urLhhdkPAATP"
    "SO/m1w8AC2W9rRPWDwAS8OJJAdQPAKzHtKeh0Q8Anh92BOLODwCyEV7YqMsPACItzW7Sxw8A7SIeLyvDDwA6uMCBZb0PADRUAMQGtg8A"
    "dCgqWECsDwCYRQEel54PAPwdpEj6iQ8ALDDw98VmDwBKHDNLWhoPAA=="
)
