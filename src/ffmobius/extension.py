"""Deterministic embeddings GF(q) -> GF(q^L).

Used where a computation runs in a splitting field: the image of the base
field is fixed by sending the base modulus to its smallest root in the
big field, so repeated runs agree bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

from .field import FieldCtx, field_new
from .poly import Poly

__all__ = ["embed_field", "lift_poly"]


@lru_cache(maxsize=32)
def _embedding(ctx: FieldCtx, L: int):
    big = field_new(ctx.p, ctx.k * L)
    # The base modulus has prime-subfield coefficients, which encode as the
    # same small integers in the big field.
    mod = Poly(big, ctx.modulus)
    root = None
    for x in range(big.q):
        if mod(x) == 0:
            root = x
            break
    assert root is not None, "base modulus must split in the extension"
    images = [0] * ctx.q
    powers = [1]
    for _ in range(ctx.k - 1):
        powers.append(big.mul(powers[-1], root))
    for x in range(ctx.q):
        acc = 0
        for c, rpow in zip(ctx.coords(x), powers):
            if c:
                acc = big.add(acc, big.mul(c, rpow))
        images[x] = acc
    return big, tuple(images)


def embed_field(ctx: FieldCtx, L: int):
    """Returns (big_ctx, elementwise map) embedding GF(q) into GF(q^L)."""
    if L < 1:
        raise ValueError("extension multiplier must be >= 1")
    if L == 1:
        return ctx, lambda x: x
    big, images = _embedding(ctx, L)
    return big, images.__getitem__


def lift_poly(f: Poly, big: FieldCtx, emb) -> Poly:
    return Poly(big, [emb(c) for c in f.coeffs])
