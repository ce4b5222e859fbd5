"""Auth/session lifecycle for the fetch pool — the Ray-side re-creation
of the reference's authenticated ``Session`` (login → bearer token →
expiry → refresh, with the session state and counters living as long
as the crawl; ``fscrawler/controller/session.py:24-33``).

The identity provider is a DETERMINISTIC fake (tokens are md5-derived
from the grant chain — this sandbox has no network, and the reference's
real OAuth dance is HTTP plumbing, not data processing), but the
Ray-side mechanics are real and tested: one login per actor lifetime,
a request-budgeted access token that EXPIRES and is refreshed in-place
from the refresh grant, monotonic serials so every refreshed token is
distinct, and counters (logins / refreshes / authorized requests) that
surface in ``FetchPool.stats()`` beside the pool's request counters.
A real deployment swaps :class:`TokenAuthority` for the provider's
HTTP endpoints behind the same two-method surface."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


class AuthError(RuntimeError):
    pass


class TokenAuthority:
    """Deterministic stand-in for the identity provider.

    ``grant(client_id, secret)`` validates the credential pair (the
    fake check: the secret must be the md5 hex of the client id — a
    pure function, so tests and both engines can derive it) and issues
    ``(access, refresh)``; ``refresh(client_id, refresh_token,
    serial)`` issues the next access token in the chain. Every token
    is the md5 of its full derivation path, so a forged or replayed
    token never verifies."""

    @staticmethod
    def expected_secret(client_id: str) -> str:
        return hashlib.md5(client_id.encode()).hexdigest()

    def grant(self, client_id: str, secret: str) -> tuple[str, str]:
        if secret != self.expected_secret(client_id):
            raise AuthError(f"invalid credentials for {client_id!r}")
        refresh = hashlib.md5(f"refresh|{client_id}|{secret}".encode()).hexdigest()
        access = self._access(client_id, refresh, 0)
        return access, refresh

    def refresh(self, client_id: str, refresh_token: str, serial: int) -> str:
        expected = hashlib.md5(
            f"refresh|{client_id}|{self.expected_secret(client_id)}".encode()
        ).hexdigest()
        if refresh_token != expected:
            raise AuthError("invalid refresh token")
        return self._access(client_id, refresh_token, serial)

    @staticmethod
    def _access(client_id: str, refresh_token: str, serial: int) -> str:
        return hashlib.md5(
            f"access|{client_id}|{refresh_token}|{serial}".encode()).hexdigest()


@dataclass
class AuthConfig:
    client_id: str = "fs-crawler"
    secret: str = ""  # empty -> derive the valid fake secret
    token_ttl_requests: int = 500  # access token budget before refresh


class AuthSession:
    """Per-actor session state: lazily logs in on first use, spends the
    access token's request budget, refreshes in place when exhausted.
    NOT thread-safe by design — each fetch actor owns exactly one."""

    def __init__(self, config: AuthConfig | None = None,
                 authority: TokenAuthority | None = None):
        self.config = config or AuthConfig()
        self.authority = authority or TokenAuthority()
        self.access: str | None = None
        self.refresh_token: str | None = None
        self.serial = 0
        self.spent = 0
        self.counters = {"logins": 0, "refreshes": 0, "authorized_requests": 0}

    def _secret(self) -> str:
        return self.config.secret or TokenAuthority.expected_secret(
            self.config.client_id)

    def authorize(self, n_requests: int = 1) -> str:
        """Return a valid bearer token covering ``n_requests`` more
        requests, logging in / refreshing as needed."""
        if self.access is None:
            self.access, self.refresh_token = self.authority.grant(
                self.config.client_id, self._secret())
            self.counters["logins"] += 1
            self.spent = 0
        if self.spent and self.spent + n_requests > self.config.token_ttl_requests:
            # One refresh resets the budget; a grant larger than the ttl is
            # allowed as a one-shot over-budget spend against a fresh token
            # (the alternative — a while loop — would spin forever since
            # spent resets to 0 but n_requests > ttl never changes; ADVICE
            # r3). `self.spent and` skips a pointless rotation when the
            # budget was just reset by the login/refresh above.
            self.serial += 1
            self.access = self.authority.refresh(
                self.config.client_id, self.refresh_token, self.serial)
            self.counters["refreshes"] += 1
            self.spent = 0
        self.spent += n_requests
        self.counters["authorized_requests"] += n_requests
        return self.access

    def stats(self) -> dict:
        return dict(self.counters)
