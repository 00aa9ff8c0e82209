"""Online resource-management service (live daemon) — DESIGN.md §12/§15.

:mod:`repro.serve.server` (asyncio NDJSON admission service) runs the
simulator's engine behind a socket, on the platform state's logical
time; :mod:`repro.serve.clock` holds the :class:`WallClock` that stamps
live arrivals.  Around them: :mod:`repro.serve.protocol` (wire frames),
:mod:`repro.serve.depository` (Elasecutor-style per-tenant usage
depository), :mod:`repro.serve.journal` (write-ahead admission journal:
crash recovery by replay), :mod:`repro.serve.client` (blocking test
client with typed timeouts and idempotent retry),
:mod:`repro.serve.smoke` (self-test driver used by CI and
``repro serve --smoke``) and :mod:`repro.serve.chaos` (the seeded
SIGKILL/fault-injection harness behind ``repro chaos``).

Nothing below :mod:`repro.serve` imports it, so the package loads its
submodules directly.
"""

from __future__ import annotations

from repro.serve.chaos import ChaosConfig, ChaosReport, run_chaos
from repro.serve.client import RetryPolicy, ServeClient, ServeTimeoutError
from repro.serve.clock import WallClock
from repro.serve.depository import TenantUsage, UsageDepository
from repro.serve.journal import (
    AdmissionJournal,
    ServeJournalError,
    service_fingerprint,
)
from repro.serve.protocol import (
    AdmitRequest,
    AdmitResponse,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.serve.server import (
    AdmissionServer,
    RecoveryReport,
    ServeConfig,
)
from repro.serve.smoke import SmokeReport, run_smoke

__all__ = [
    "AdmissionJournal",
    "AdmissionServer",
    "AdmitRequest",
    "AdmitResponse",
    "ChaosConfig",
    "ChaosReport",
    "ProtocolError",
    "RecoveryReport",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "ServeJournalError",
    "ServeTimeoutError",
    "SmokeReport",
    "TenantUsage",
    "UsageDepository",
    "WallClock",
    "decode_frame",
    "encode_frame",
    "run_chaos",
    "run_smoke",
    "service_fingerprint",
]
