"""The field construction: (u,v) and (x,v) inside the host ring (x,y).

The base field sits inside the host field through

    u = x^p / (1 - x^(p-1)),        v = y^p - x^c * y,

for a fixed integer c >= 1 with (p-1) | c.  The degree-p intermediate
extension is presented on coordinates (x,v) and embeds through the same
image of v.  One engine on (x,y) then computes all three valuations: the
host value, its restriction to the intermediate field, and its restriction
to the base field.  ``engine.host_value`` takes each of them on the cleared
image (``polys._cleared``); ``embed_uv`` builds the normalized image of a
base-field element as a fraction, for arithmetic on it: an approximant's
tail, and the tests' oracles.

Each image set is built once per config and budget limit and shared,
read-only, by every embedding; ``polys.substitute`` shares its powers.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

from .polys import Poly, RatFunc, Ring, _budget_memo, ring_xy, substitute
from .values import check_p

__all__ = ["EmbeddingConfig", "uv_images", "xv_images", "embed_uv"]


@dataclass(frozen=True)
class EmbeddingConfig:
    """Characteristic p and the exponent c of the mixed term in v's image."""

    p: int
    c: int

    def __post_init__(self):
        check_p(self.p)
        if self.c < 1 or self.c % (self.p - 1) != 0:
            raise ValueError(f"c must be a positive multiple of p-1, got {self.c}")

    @classmethod
    def default(cls, p: int) -> "EmbeddingConfig":
        return cls(p, p - 1)


def _v_image(cfg: EmbeddingConfig, host: Ring) -> RatFunc:
    p, c = cfg.p, cfg.c
    return RatFunc(Poly(host, {(0, p): 1, (c, 1): -1}))


def _u_image(cfg: EmbeddingConfig, host: Ring) -> RatFunc:
    p = cfg.p
    return RatFunc(Poly(host, {(p, 0): 1}), Poly(host, {(0, 0): 1, (p - 1, 0): -1}))


@_budget_memo
@cache
def uv_images(cfg: EmbeddingConfig) -> Mapping[str, RatFunc]:
    """Images of u and v in the host ring (x,y), built once per config and limit."""
    host = ring_xy(cfg.p)
    return MappingProxyType({"u": _u_image(cfg, host), "v": _v_image(cfg, host)})


@_budget_memo
@cache
def xv_images(cfg: EmbeddingConfig) -> Mapping[str, RatFunc]:
    """Images of x and v in the host ring (x,y), built once per config and limit."""
    host = ring_xy(cfg.p)
    return MappingProxyType({"x": RatFunc(Poly.var(host, "x")), "v": _v_image(cfg, host)})


def embed_uv(f: Poly | RatFunc, cfg: EmbeddingConfig) -> RatFunc:
    """Image in (x,y) of an element written on base coordinates (u,v)."""
    return substitute(f, uv_images(cfg))

