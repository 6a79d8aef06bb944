"""Embedding propagation: iterated neighbor averaging with row normalization.

Each node carries a d-dimensional embedding row.  One propagation step
replaces every row by the weighted sum of its neighbors' rows and rescales it
to unit length; this is exactly a parallel network step with the row
normalizer as activation and zero bias.
"""

from __future__ import annotations

from itertools import chain, islice, product
from typing import Optional

import numpy as np

from .clustering import WeightedGraph
from .core import _normalize_rows_inplace, l2_normalize_rows  # noqa: F401 (perfbench traces it)

__all__ = ["run_cleora", "write_embedding"]

# Default propagations of run_cleora and of `dhn cluster --method cleora`; more make
# rows collinear (karate, d = 2: least |cos| 0.005 after 3 steps, 0.9988 after 30).
CLEORA_ITERS = 3
# columns of W X formed at once: a step holds the n x d state and two n x 8 blocks
_PRODUCT_COLUMNS = 8


def run_cleora(
    graph: WeightedGraph,
    d: int,
    iters: int = CLEORA_ITERS,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Propagate seeded random embeddings through the graph.

    The n x d start matrix has i.i.d. uniform(-1, 1) entries drawn from
    ``seed``; each of the ``iters`` steps computes l2_normalize_rows(W X).
    With iters = 0 the start matrix is returned unchanged.  Rows that become
    exactly zero stay zero; a graph with no nonzero weight or a non-finite W X raises ValueError.
    """
    if d < 1:
        raise ValueError("embedding dimension d must be positive")
    if iters < 0:
        raise ValueError("iteration count must be nonnegative")
    if iters >= 1 and graph.weights.nnz == 0:
        raise ValueError("the graph has no nonzero weight: every propagated row would be zero")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(graph.n, d))
    for _ in range(iters):
        # W X acts column by column, so each block of columns is replaced in place
        for c in range(0, d, _PRODUCT_COLUMNS):
            x[:, c : c + _PRODUCT_COLUMNS] = graph.weights @ x[:, c : c + _PRODUCT_COLUMNS]
        if not (np.isfinite(x.min()) and np.isfinite(x.max())):  # the normalizer would zero it
            raise ValueError("a propagation step overflowed float64: rescale the weights")
        _normalize_rows_inplace(x)
    return x


# values per formatted block: 32 rows at d = 64 keep a 6000 x 64 write under 1 MiB
_BLOCK_VALUES = 2048

# 10**16 .. 10**20, each exact, and their Veltkamp halves (split by 2**27 + 1)
_POW10 = np.array([float(10**k) for k in range(16, 21)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# "0000" .. "9999" as little-endian 4-byte words; _KEPT[k, g] is how many of the 16 digits
# after the leading one to print if group k (of four) is g and the groups after it are 0
_DIGITS = np.frombuffer(bytes(chain.from_iterable(product(b"0123456789", repeat=4))), np.uint8)
_GROUPS = _DIGITS.view("<u4")
_LENGTH = np.max((_DIGITS.reshape(-1, 4) > ord("0")) * np.arange(1, 5, dtype=np.uint8), axis=1)
_KEPT = np.where(_LENGTH > 0, np.arange(0, 16, 4, dtype=np.uint8)[:, None] + _LENGTH, np.uint8(0))
# a value's 24-byte slot is " -0.000" then its 17 digits; row (lz * 17 + kept) * 2 + neg keeps
# the separator, the sign if negative, "0.", lz zeros, the leading digit and kept more digits
_KEEP = np.ones((4, 17, 2, 24), dtype=bool)
_KEEP[:, :, 0, 1] = False
for _lz in range(4):
    _KEEP[_lz, :, :, 4 + _lz : 7] = False
for _kept in range(16):
    _KEEP[:, _kept, :, 8 + _kept :] = False
_KEEP = _KEEP.reshape(-1, 24)
_HEAD, _ROW_HEAD, _ZEROS = np.frombuffer(b" -0.\n-0.000\0", dtype="<u4")


def _digits(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a * 10**q rounded to the nearest integer, ties to even, for a * 10**q near [1e16, 1e17].

    Dekker's two-product gives a * 10**q = p + e exactly; p >= 2**53 is an even
    integer, so rounding p + e rounds e.
    """
    b, b_hi, b_lo = _POW10.take(q - 16), _POW10_HI.take(q - 16), _POW10_LO.take(q - 16)
    p = a * b
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _format_rows(block: np.ndarray) -> list:
    """Each row of a rows x d block (d >= 1) as its %.17g values joined by spaces.

    Values with 1e-4 <= |v| < 1, which %.17g prints as [-]0.[000] and up to 17
    digits, are formatted in numpy; every other value goes through %.17g.
    """
    a = np.abs(block)
    fast = (a >= 1e-4) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    q = 16 - np.floor(np.log10(a)).astype(np.int64)  # a * 10**q has 17 digits, or 16 or 18
    digits = _digits(a, q)
    off = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
    if off.any():
        q -= off
        digits = np.where(off != 0, _digits(a, q), digits)
    lead = digits // 10**16
    groups = [digits // 10**p % 10000 for p in (12, 8, 4, 0)]
    kept = np.max([_KEPT[k].take(g) for k, g in enumerate(groups)], axis=0)
    words = np.empty(block.shape + (6,), dtype="<u4")
    words[..., 0] = _HEAD
    words[:, 0, 0] = _ROW_HEAD  # a newline, not a space, so the text splits into rows
    words[..., 1] = _ZEROS + ((lead.astype(np.uint32) + ord("0")) << 24)  # "000" and the lead
    for k, g in enumerate(groups):
        words[..., 2 + k] = _GROUPS.take(g)
    keep = _KEEP.take(((q - 17) * 17 + kept) * 2 + np.signbit(block), axis=0)
    text = np.compress(keep.ravel(), words.view(np.uint8).ravel()).tobytes().decode("ascii")
    texts = text.split("\n")[1:]
    for i in np.flatnonzero(~fast.all(axis=1)).tolist():
        values = zip(texts[i].split(" "), fast[i].tolist(), block[i].tolist())
        texts[i] = " ".join(s if ok else "%.17g" % v for s, ok, v in values)
    return texts


def write_embedding(path, embedding: np.ndarray, labels=None) -> None:
    """Write one node per line: its label then d decimals with 17 significant digits.

    The bytes are those of "%s " + " ".join(["%.17g"] * d) + "\n" per row.
    Blocks of rows are formatted in numpy (_format_rows); only values outside
    1e-4 <= |v| < 1 go through %.17g one at a time.
    """
    embedding = np.asarray(embedding, dtype=float)
    if embedding.ndim != 2:
        raise ValueError("embedding must be a 2-d matrix")
    if labels is None:
        labels = range(embedding.shape[0])
    if len(labels) != embedding.shape[0]:
        raise ValueError("label count must match the number of embedding rows")
    n, d = embedding.shape
    step = max(1, _BLOCK_VALUES // max(d, 1))
    labels = iter(labels)
    with open(path, "w") as fh:
        for start in range(0, n, step):
            block = embedding[start : start + step]
            texts = _format_rows(block) if d else [""] * len(block)
            lines = zip(islice(labels, len(texts)), texts)
            fh.write("".join([f"{label!s} {text}\n" for label, text in lines]))
