"""Minting and verifying port tokens.

A token is a fixed 28-byte capability: a 20-byte packed claim body plus
a truncated HMAC-SHA256 seal computed with the issuing router's secret.
Only the router (and its administrative domain) can verify or forge
tokens — to everyone else they are "opaque capabilities", which is
exactly the paper's requirement.  Full verification is modelled as
*slow* (the router charges ``verify_cost`` seconds) so that the value of
the token cache (§2.2) is measurable.

Claim body layout (big-endian)::

    port(1) max_priority(1) flags(1) reserved(1)
    account(4) byte_limit(8) expiry_ms(4)
"""

from __future__ import annotations

import hmac
import hashlib
import struct
from collections import namedtuple

#: Token body + seal sizes.
BODY_BYTES = 20
SEAL_BYTES = 8
TOKEN_BYTES = BODY_BYTES + SEAL_BYTES

#: Port value in a claim that authorizes any port on the router.
WILDCARD_PORT = 0xFF

#: Claim flag bits.
_FLAG_REVERSE_OK = 0x01

_BODY_STRUCT = struct.Struct(">BBBBIQI")

#: Byte-limit value meaning "unlimited".
UNLIMITED = 0


class InvalidTokenError(Exception):
    """The token failed verification (bad seal, expired, or malformed)."""


class ClaimChecks:
    """What a token's claims authorize, asked of anything that carries
    the claim fields: :class:`TokenClaims`, and the token cache's entry,
    which keeps them flat beside its counters."""

    __slots__ = ()

    def authorizes_port(self, port: int) -> bool:
        return self.port == WILDCARD_PORT or self.port == port

    def authorizes_priority(self, priority: int) -> bool:
        """True when ``priority`` is within the authorized type of service.

        Wire priorities with the high bit set are *lower* than normal
        (§5), so they are always within any authorization.
        """
        if priority & 0x8:
            return True
        return priority <= self.max_priority

    def expired(self, now_ms: int) -> bool:
        return self.expiry_ms != 0 and now_ms > self.expiry_ms


class TokenClaims(
    namedtuple(
        "TokenClaims",
        "port max_priority account byte_limit reverse_ok expiry_ms",
        defaults=(UNLIMITED, False, 0),  # expiry_ms 0 = never expires
    ),
    ClaimChecks,
):
    """The decoded authorization a token conveys: a tuple, so the one
    unpack of a token's body is the claims, and the token cache's entry
    takes them flat in one assignment."""

    __slots__ = ()


class TokenMint:
    """Mints and verifies tokens for one router / administrative domain.

    In deployment the routing directory service holds the mint (or a
    delegation of it) and hands tokens out with routes (§3); routers hold
    the secret needed to verify.
    """

    def __init__(self, secret: bytes, issuer: str = "") -> None:
        if not secret:
            raise ValueError("mint secret must be non-empty")
        self.secret = bytes(secret)
        self.issuer = issuer

    # -- minting ---------------------------------------------------------

    def mint(
        self,
        port: int,
        account: int,
        max_priority: int = 0x7,
        byte_limit: int = UNLIMITED,
        reverse_ok: bool = False,
        expiry_ms: int = 0,
    ) -> bytes:
        """Produce a sealed token authorizing ``port`` at ``max_priority``."""
        if not 0 <= port <= 0xFF:
            raise ValueError(f"port {port} out of range")
        if not 0 <= max_priority <= 0xF:
            raise ValueError(f"max_priority {max_priority} out of range")
        if not 0 <= account < (1 << 32):
            raise ValueError(f"account {account} out of range")
        if byte_limit < 0:
            raise ValueError("byte_limit must be non-negative")
        flags = _FLAG_REVERSE_OK if reverse_ok else 0
        body = _BODY_STRUCT.pack(
            port, max_priority, flags, 0, account, byte_limit, expiry_ms
        )
        return body + self._seal(body)

    # -- verification -----------------------------------------------------

    def verify(self, token: bytes, now_ms: int = 0) -> TokenClaims:
        """Fully verify a token; raises :class:`InvalidTokenError`.

        This is the *slow path* a router takes exactly once per distinct
        token value; thereafter the cached claims are used.
        """
        claims = self.peek(token)
        if not hmac.compare_digest(
            token[BODY_BYTES:], self._seal(token[:BODY_BYTES])
        ):
            raise InvalidTokenError("bad token seal")
        if claims.expired(now_ms):
            raise InvalidTokenError("token expired")
        return claims

    @staticmethod
    def peek(token: bytes) -> TokenClaims:
        """Decode claims *without* checking the seal (structure only)."""
        if len(token) != TOKEN_BYTES:
            raise InvalidTokenError(
                f"token must be {TOKEN_BYTES} bytes, got {len(token)}"
            )
        port, max_priority, flags, _r, account, limit, expiry = (
            _BODY_STRUCT.unpack_from(token)
        )
        return TokenClaims(
            port, max_priority, account, limit,
            bool(flags & _FLAG_REVERSE_OK), expiry,
        )

    def _seal(self, body: bytes) -> bytes:
        return hmac.new(self.secret, body, hashlib.sha256).digest()[:SEAL_BYTES]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TokenMint issuer={self.issuer!r}>"
