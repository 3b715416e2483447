"""The field construction: (u,v) and (x,v) inside the host ring (x,y).

The base field sits inside the host field through

    u = x^p / (1 - x^(p-1)),        v = y^p - x^c * y,

for a fixed integer c >= 1 with (p-1) | c.  The degree-p intermediate
extension is presented on coordinates (x,v) and embeds through the same
image of v.  One engine on (x,y) then computes all three valuations: the
host value, its restriction to the intermediate field, and its restriction
to the base field.

The images are built once per config and shared, as read-only mappings, by
every embedding; ``polys.substitute`` shares the powers of them it builds.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

from .polys import Poly, RatFunc, Ring, ring_xy, substitute
from .values import is_prime

__all__ = ["EmbeddingConfig", "uv_images", "xv_images", "embed_uv", "embed_xv", "embed"]


@dataclass(frozen=True)
class EmbeddingConfig:
    """Characteristic p and the exponent c of the mixed term in v's image."""

    p: int
    c: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if self.c % (self.p - 1) != 0:
            raise ValueError(f"(p-1)={self.p - 1} must divide c={self.c}")

    @classmethod
    def default(cls, p: int) -> "EmbeddingConfig":
        return cls(p, p - 1)


def _v_image(cfg: EmbeddingConfig, host: Ring) -> RatFunc:
    p, c = cfg.p, cfg.c
    return RatFunc(Poly(host, {(0, p): 1, (c, 1): -1}))


def _u_image(cfg: EmbeddingConfig, host: Ring) -> RatFunc:
    p = cfg.p
    return RatFunc(Poly(host, {(p, 0): 1}), Poly(host, {(0, 0): 1, (p - 1, 0): -1}))


@cache
def uv_images(cfg: EmbeddingConfig) -> Mapping[str, RatFunc]:
    """Images of u and v in the host ring (x,y), built once per config."""
    host = ring_xy(cfg.p)
    return MappingProxyType({"u": _u_image(cfg, host), "v": _v_image(cfg, host)})


@cache
def xv_images(cfg: EmbeddingConfig) -> Mapping[str, RatFunc]:
    """Images of x and v in the host ring (x,y), built once per config."""
    host = ring_xy(cfg.p)
    return MappingProxyType({"x": RatFunc(Poly.var(host, "x")), "v": _v_image(cfg, host)})


def embed_uv(f: Poly | RatFunc, cfg: EmbeddingConfig) -> RatFunc:
    """Image in (x,y) of an element written on base coordinates (u,v)."""
    return substitute(f, uv_images(cfg))


def embed_xv(f: Poly | RatFunc, cfg: EmbeddingConfig) -> RatFunc:
    """Image in (x,y) of an element written on intermediate coordinates (x,v)."""
    return substitute(f, xv_images(cfg))


def embed(f: Poly | RatFunc, cfg: EmbeddingConfig) -> RatFunc:
    """Route any supported coordinate presentation into the host ring."""
    vars = f.ring.vars
    if vars == ("x", "y"):
        return f if isinstance(f, RatFunc) else RatFunc(f)
    if vars == ("u", "v"):
        return embed_uv(f, cfg)
    if vars == ("x", "v"):
        return embed_xv(f, cfg)
    raise ValueError(f"no embedding from ring {f.ring}")
