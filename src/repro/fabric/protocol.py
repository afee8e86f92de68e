"""Wire protocol of the distributed sweep fabric.

Everything that crosses the coordinator/worker/client boundary is
**strict JSON** — the same discipline the cache and report wire formats
adopted in PR 2/3 (``allow_nan=False``; non-finite floats travel as
``{"$float": ...}`` markers).  This module owns the shared vocabulary:

* :func:`task_to_wire` / :func:`task_from_wire` — a
  :class:`~repro.runner.plan.RunTask` as a plain JSON object and back
  (round-trip-exact, so the worker executes precisely the coordinates
  the client submitted);
* :func:`encode` / :func:`decode` — strict-JSON bytes with loud,
  typed failures;
* :func:`http_call` / :func:`call_with_retries` — the stdlib
  ``urllib`` client every fabric role uses, separating *retryable*
  transport failures (:class:`FabricUnavailable`, from
  :mod:`repro.utils.errors`) from *fatal* protocol
  rejections (:class:`ProtocolError`, carrying the HTTP status so the
  worker can distinguish an unknown-lease 409 from a generic 400).

No third-party dependencies: the fabric is ``http.server`` +
``urllib`` end to end.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.runner.plan import RunTask
from repro.utils.errors import FabricUnavailable, InvalidParameterError

#: Protocol revision; bumped on any incompatible wire change.  Clients
#: and workers send no version, and the coordinator checks none on
#: requests: it stamps its queue checkpoint with this value, refuses to
#: restore a checkpoint carrying another, and reports it in ``/status``.
WIRE_VERSION = 1

#: HTTP status used for lease-identity rejections (unknown lease id).
STATUS_UNKNOWN_LEASE = 409

#: HTTP status for a missing/wrong shared fabric token.
STATUS_UNAUTHORIZED = 401

#: Header carrying the shared fabric token (``repro serve --token``).
TOKEN_HEADER = "X-Repro-Token"

#: Ceiling on a single retry backoff sleep (seconds).
MAX_BACKOFF = 5.0

#: Largest request body the coordinator reads (bytes); a larger declared
#: ``Content-Length`` is refused with 413 before the body is read.  It
#: holds a base64 v2 agent checkpoint up to n ≈ 5·10^7 (an agent E4
#: checkpoint at n = 10^6 is 1.33 MB; a count one holds only counts).
MAX_BODY_BYTES = 64 * 1024 * 1024


class ProtocolError(InvalidParameterError):
    """A malformed or rejected fabric message (not retryable).

    ``status`` carries the HTTP code when the rejection came from the
    coordinator (``None`` for purely local encode/decode failures).
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class UnknownLeaseError(ProtocolError):
    """A result/heartbeat referenced a lease the coordinator never issued."""

    def __init__(self, message: str):
        super().__init__(message, status=STATUS_UNKNOWN_LEASE)


def encode(payload: dict) -> bytes:
    """``payload`` as canonical strict-JSON bytes (sorted keys)."""
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ProtocolError(
            f"fabric payloads must be strictly JSON-serializable: {error}"
        ) from error


def decode(data: bytes) -> dict:
    """Strict-JSON bytes back to a JSON object, loudly."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed fabric message: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"fabric messages must be JSON objects, "
            f"got {type(payload).__name__}"
        )
    return payload


def task_to_wire(task: RunTask) -> dict:
    """A :class:`RunTask` as its strict-JSON wire object.

    Override values are coerced with the report layer's
    :func:`~repro.experiments.base._jsonable`, so numpy scalars survive
    the trip and non-finite floats travel portably.
    """
    from repro.experiments.base import _jsonable

    return {
        "experiment": task.experiment_id,
        "profile": task.profile,
        "params": [[name, _jsonable(value)] for name, value in task.params],
        "seed": task.seed,
        "backend": task.backend,
        "label": task.label,
    }


def task_from_wire(wire: dict) -> RunTask:
    """Rebuild a :class:`RunTask` from :func:`task_to_wire` output."""
    from repro.experiments.base import _from_wire

    if not isinstance(wire, dict):
        raise ProtocolError(
            f"task wire form must be a JSON object, got {wire!r}"
        )
    missing = {"experiment", "profile", "params", "seed"} - set(wire)
    if missing:
        raise ProtocolError(
            f"task wire form is missing field(s): {', '.join(sorted(missing))}"
        )
    params = wire["params"]
    if not isinstance(params, list) or any(
        not isinstance(pair, list) or len(pair) != 2 for pair in params
    ):
        raise ProtocolError(
            f"task params must be [name, value] pairs, got {params!r}"
        )
    try:
        return RunTask(
            experiment_id=wire["experiment"],
            profile=wire["profile"],
            params=[(name, _from_wire(value)) for name, value in params],
            seed=wire["seed"],
            backend=wire.get("backend"),
            label=wire.get("label"),
        )
    except InvalidParameterError as error:
        raise ProtocolError(f"invalid task on the wire: {error}") from error


def http_call(
    base_url: str,
    path: str,
    payload: dict | None = None,
    timeout: float = 30.0,
    token: str | None = None,
) -> dict:
    """One POST of strict JSON to ``base_url + path``; decoded response.

    Transport failures (connection refused, DNS, timeouts) raise
    :class:`FabricUnavailable` — the caller may retry.  HTTP error
    statuses raise :class:`ProtocolError` (or :class:`UnknownLeaseError`
    for 409) carrying the coordinator's ``error`` message — retrying
    would not help.  ``token`` (when the coordinator was started with
    ``--token``) travels in the :data:`TOKEN_HEADER` header; a 401
    rejection is deterministic and never retried.
    """
    url = base_url.rstrip("/") + path
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers[TOKEN_HEADER] = str(token)
    request = urllib.request.Request(
        url,
        data=encode(payload if payload is not None else {}),
        headers=headers,
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return decode(response.read())
    except urllib.error.HTTPError as error:
        body = error.read()
        try:
            detail = decode(body).get("error", "")
        except ProtocolError:
            detail = body.decode("utf-8", errors="replace").strip()
        message = f"{path} rejected ({error.code}): {detail or 'no detail'}"
        if error.code == STATUS_UNKNOWN_LEASE:
            raise UnknownLeaseError(message) from error
        raise ProtocolError(message, status=error.code) from error
    except (urllib.error.URLError, TimeoutError, ConnectionError, OSError) as error:
        raise FabricUnavailable(
            f"coordinator unreachable at {url}: {error}"
        ) from error


def call_with_retries(
    base_url: str,
    path: str,
    payload: dict | None = None,
    timeout: float = 30.0,
    retries: int = 6,
    backoff: float = 0.25,
    sleep=time.sleep,
    token: str | None = None,
) -> dict:
    """:func:`http_call` with exponential backoff on transport failures.

    Protocol rejections are never retried — they are deterministic.
    ``retries`` counts *additional* attempts after the first; backoff
    doubles per attempt, capped at :data:`MAX_BACKOFF`.
    """
    attempt = 0
    while True:
        try:
            return http_call(base_url, path, payload, timeout=timeout,
                             token=token)
        except FabricUnavailable:
            if attempt >= retries:
                raise
            sleep(min(backoff * (2**attempt), MAX_BACKOFF))
            attempt += 1
