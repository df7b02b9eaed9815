"""Admission control: token-bucket quotas and bounded per-tenant queues.

The gateway's first line of defense.  Every request passes through
:meth:`AdmissionController.admit` *before* any storage work happens;
rejections are cheap (no thread-pool hop; a frame's payload has been read
off the socket, to keep the connection in step, but is never decoded) so
an overloaded gateway stays responsive while shedding.

Two independent mechanisms per tenant:

* **Token buckets** (requests/sec and bytes/sec) enforce the tenant's
  contracted rate.  Bytes are the request frame as it crossed the socket
  — header line plus raw payload — so a save costs its true size.  An
  empty bucket rejects with ``quota`` and an honest
  ``retry_after_s`` — the time until enough tokens refill — so a
  well-behaved client backs off exactly as long as needed.
* **Inflight bound** caps admitted-but-unfinished requests.  When one
  tenant's workload outruns the worker pool, *its* queue fills and *its*
  requests shed with ``overloaded``; other tenants' queues are untouched.
  This is the isolation property the serving benchmark gates on.

Time comes from :func:`repro.obs.clock` so tests drive the buckets with
a ``FakeClock`` instead of sleeping.
"""

from __future__ import annotations

import threading

from .. import obs
from .protocol import GatewayError
from .tenancy import TenantQuota

__all__ = ["TokenBucket", "AdmissionController", "AdmissionTicket"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/sec, capacity ``burst``."""

    def __init__(self, rate: float, burst: float, clock=None):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock if clock is not None else obs.clock()
        self._tokens = self.burst
        self._stamp = self._clock.perf()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock.perf()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._stamp = now

    def try_acquire(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; never blocks."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    def retry_after(self, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens will be available."""
        with self._lock:
            self._refill_locked()
            deficit = amount - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens


class AdmissionTicket:
    """Proof of admission; releasing it frees the tenant's queue slot."""

    __slots__ = ("_controller", "_tenant", "_released")

    def __init__(self, controller: "AdmissionController", tenant: str):
        self._controller = controller
        self._tenant = tenant
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release(self._tenant)

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class AdmissionController:
    """Per-tenant quota enforcement shared by every gateway connection."""

    def __init__(self, quotas: dict[str, TenantQuota], clock=None):
        self._clock = clock if clock is not None else obs.clock()
        self._quotas = dict(quotas)
        self._request_buckets = {
            name: TokenBucket(q.requests_per_s, q.burst_requests, self._clock)
            for name, q in self._quotas.items()
        }
        self._byte_buckets = {
            name: TokenBucket(q.bytes_per_s, q.burst_bytes, self._clock)
            for name, q in self._quotas.items()
        }
        self._inflight = {name: 0 for name in self._quotas}
        self._lock = threading.Lock()
        registry = obs.registry()
        self._obs_depth = {
            name: registry.gauge(
                "mmlib_gateway_queue_depth",
                "Admitted-but-unfinished gateway requests",
                tenant=name,
            )
            for name in self._quotas
        }
        self._obs_outcomes = {
            (name, outcome): registry.counter(
                "mmlib_gateway_admission_total",
                "Gateway admission decisions",
                tenant=name,
                outcome=outcome,
            )
            for name in self._quotas
            for outcome in ("admitted", "shed_overloaded", "shed_quota")
        }

    def admit(self, tenant: str, nbytes: int = 0) -> AdmissionTicket:
        """Admit one request of ``nbytes`` on the wire or raise a typed shed.

        Checks run cheapest-first and the queue slot is taken *last*, so
        a rejection never leaks a slot.  Byte tokens are only charged
        once the request is otherwise admitted (a shed request costs the
        tenant nothing).
        """
        quota = self._quotas.get(tenant)
        if quota is None:
            raise GatewayError("forbidden", f"unknown tenant {tenant!r}")
        requests = self._request_buckets[tenant]
        if not requests.try_acquire(1.0):
            self._obs_outcomes[(tenant, "shed_quota")].inc()
            raise GatewayError(
                "quota",
                f"tenant {tenant!r} request rate exceeded",
                retry_after_s=requests.retry_after(1.0),
            )
        if nbytes > 0:
            bytes_bucket = self._byte_buckets[tenant]
            amount = min(float(nbytes), bytes_bucket.burst)
            if not bytes_bucket.try_acquire(amount):
                self._obs_outcomes[(tenant, "shed_quota")].inc()
                raise GatewayError(
                    "quota",
                    f"tenant {tenant!r} byte rate exceeded",
                    retry_after_s=bytes_bucket.retry_after(amount),
                )
        with self._lock:
            if self._inflight[tenant] >= quota.max_inflight:
                shed = True
            else:
                self._inflight[tenant] += 1
                depth = self._inflight[tenant]
                shed = False
        if shed:
            self._obs_outcomes[(tenant, "shed_overloaded")].inc()
            raise GatewayError(
                "overloaded",
                f"tenant {tenant!r} queue full "
                f"({quota.max_inflight} requests in flight)",
                retry_after_s=0.05,
            )
        self._obs_depth[tenant].set(depth)
        self._obs_outcomes[(tenant, "admitted")].inc()
        return AdmissionTicket(self, tenant)

    def _release(self, tenant: str) -> None:
        with self._lock:
            self._inflight[tenant] -= 1
            depth = self._inflight[tenant]
        self._obs_depth[tenant].set(depth)

    def inflight(self, tenant: str) -> int:
        with self._lock:
            return self._inflight[tenant]

    def total_inflight(self) -> int:
        with self._lock:
            return sum(self._inflight.values())
