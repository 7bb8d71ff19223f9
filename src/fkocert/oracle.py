"""Brute-force oracle over all 2^n assignments, the independent second
route behind the soundness checks.  Bit-sliced: in a block of 2^b
assignments, b = min(n, _CHUNK_BITS), a variable is one 2^b-bit int whose
bit j is its value under the j-th assignment, so one `|`, `&` or `^` acts
on the whole block.  Plane k of a count holds bit k of every count."""

from .cnf import Cnf

__all__ = ["CAP", "brute_force_report"]

CAP = 25  # most variables walked: 2^25 assignments
_CHUNK_BITS = 20  # 2^20 assignments per block, 128 KiB per mask


def _add(count: list[list], x: int, k: int = 0) -> None:
    """Add the 0/1 mask x at weight 2^k.  count[k] is [plane k, the mask
    waiting there or None]: masks join a plane in pairs, through one
    carry-save adder that sends a single carry up."""
    while x:
        if k == len(count):
            count.append([0, None])
        plane, y = count[k]
        if y is None:
            count[k][1] = x
            return
        u = plane ^ y
        count[k] = [u ^ x, None]
        x, k = plane & y | u & x, k + 1


def _max(count: list[list]) -> int:
    """Largest count in the block.  First each waiting mask joins its
    plane; a carry may append a level, which the loop visits too."""
    for k, (plane, y) in enumerate(count):
        if y is not None:
            count[k] = [plane ^ y, None]
            _add(count, plane & y, k + 1)
    best, live = 0, -1  # live: the assignments still at `best` so far
    for k in reversed(range(len(count))):
        if live & count[k][0]:
            live, best = live & count[k][0], best | 1 << k
    return best


def brute_force_report(cnf: Cnf) -> tuple[bool, int, int]:
    """(unsat, max NAE-satisfied clauses, min clauses with an even number
    of true literals, i.e. m less the most with an odd number) over all
    assignments, in one walk.  ValueError when n > CAP."""
    if cnf.n > CAP:
        raise ValueError(f"n={cnf.n} exceeds brute-force cap {CAP}")
    b = min(cnf.n, _CHUNK_BITS)
    full = (1 << (1 << b)) - 1
    low, size = [0], 1  # low[0] unused: variables count from 1
    while size < 1 << b:  # double the block; x_i's bit j is bit i-1 of j
        low = [x | x << size for x in low] + [((1 << size) - 1) << size]
        size <<= 1
    satisfiable, max_nae, max_odd = False, 0, 0
    for high in range(1 << (cnf.n - b)):  # x_i, i > b, is bit i-b-1 of high
        pos = low + [full if high >> i & 1 else 0 for i in range(cnf.n - b)]
        lits = ([full ^ x for x in pos], pos)  # indexed by polarity
        sat, nae, odd = full, [], []
        for u, v, w, (p, q, r) in zip(cnf.x, cnf.y, cnf.z, cnf.pols):
            x, y, z = lits[p][u], lits[q][v], lits[r][w]
            some = x | y | z
            sat &= some
            _add(nae, some ^ x & y & z)
            _add(odd, x ^ y ^ z)
        satisfiable = satisfiable or sat != 0
        max_nae, max_odd = max(max_nae, _max(nae)), max(max_odd, _max(odd))
    return not satisfiable, max_nae, cnf.m - max_odd
